#!/usr/bin/env python3
"""Host-time benchmark of the multi-GPU simulator.

Run from the repository root:

    python3 perfbench/run.py --workload verify_irregular --seed 1 \
        --seconds 20 --trace 0

Builds the simulator libraries and the `perfbench` binary from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then:

  --trace 0  runs untraced passes of the workload, each in a fresh process,
             for --seconds, and reports the end-to-end metrics over the
             passes;
  --trace 1  runs the traced run of every workload (spans around each layer
             call, a counting observer, probe reruns) and reports the
             per-layer metrics; spans go to <build>/spans/.

Every run checks the simulated output: all passes of one seed must give the
same digest, the default seed's digest must equal the one committed in
digests.json, the observer-attached traced pass must give the untraced
digest, and no cell or job may fail. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORKLOADS = ("verify_irregular", "timing_sweep", "serve_fleet")
DEFAULT_SEED = 1
MIN_PASSES = 3
PROCESS_TIMEOUT_S = 150

# Per-layer metrics of the traced run, with units. Simulated quantities are
# in sim_us; every other time is host time.
PER_LAYER_UNITS = {
    "workloads.simulate_ms": "ms",
    "workloads.reference_ms": "ms",
    "workloads.numerics_ms": "ms",
    "solvers.simulate_ms": "ms",
    "solvers.reference_ms": "ms",
    "solvers.numerics_ms": "ms",
    "solvers.partition_tag_ms": "ms",
    "sweep.emit_ms": "ms",
    "sweep.parallel_efficiency": "ratio",
    "verify_irregular.trace_overhead": "ratio",
    "stencil.hgx_ms": "ms",
    "stencil.dgx_pcie_ms": "ms",
    "stencil.multi_node_ms": "ms",
    "dacelite.compile_ms": "ms",
    "dacelite.execute_ms": "ms",
    "cpufree.trace_analysis_ms": "ms",
    "topo.host_ns_per_admission": "ns",
    "timing_sweep.sim.host_ns_per_event": "ns",
    "timing_sweep.trace_overhead": "ratio",
    "serve.run_ms": "ms",
    "serve.isolated_ms": "ms",
    "serve.queue_wait_us": "sim_us",
    "topo.contended_admissions": "count",
    "serve.unverified": "count",
    "serve_fleet.sim.host_ns_per_event": "ns",
    "serve_fleet.trace_overhead": "ratio",
}
COUNTERS = (
    "vgpu.kernel_groups",
    "vgpu.stream_ops",
    "vshmem.puts",
    "vshmem.signal_updates",
    "vshmem.signal_waits",
    "sim.barrier_arrivals",
    "topo.link_admissions",
    "exec.accesses",
)
for _w in ("timing_sweep", "serve_fleet"):
    for _c in COUNTERS:
        PER_LAYER_UNITS[f"{_w}.{_c}"] = "count"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return Path(base) / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (SRC_DIR / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found at {SRC_DIR}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "perfbench"


def run_process(binary, args):
    """Runs one perfbench process; returns (FAIL entries, other lines, JSON).
    A FAIL entry keeps its indented continuation lines (hang reports)."""
    try:
        proc = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench {' '.join(args)} timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"perfbench {' '.join(args)} exited {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    fails, other = [], []
    for line in lines[:-1]:
        if line.startswith("FAIL "):
            fails.append(line)
        elif line.startswith("    ") and fails and not other:
            fails[-1] += "\n" + line
        else:
            other.append(line)
    return fails, other, result


def committed_digests():
    with open(BENCH_DIR / "digests.json") as f:
        return json.load(f)


class Checks:
    """Collects correctness problems and failure listings for the report."""

    def __init__(self):
        self.problems = []
        self.fail_lines = []
        self.attempted = 0
        self.failed = 0

    def count(self, result, fails):
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        for line in fails:
            if line not in self.fail_lines:
                self.fail_lines.append(line)

    def default_digest(self, binary, workload, digest_at_default):
        """Compares the default seed's digest with the committed one,
        running one untimed pass when the run used another seed."""
        if digest_at_default is None:
            fails, _, res = run_process(
                binary, ["pass", workload, "--seed", str(DEFAULT_SEED)])
            self.count(res, fails)
            digest_at_default = res["digest"]
        want = committed_digests()[workload]
        if digest_at_default != want:
            self.problems.append(
                f"{workload}: default-seed digest {digest_at_default} != "
                f"committed {want}")

    @property
    def correct(self):
        return not self.problems and self.failed == 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def repeat(seconds, minimum, step):
    """Calls step() at least `minimum` times, then while the next call is
    expected to end within `seconds` of the start; returns the results."""
    results = []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(results) >= minimum and elapsed + longest > seconds:
            return results
        t = time.monotonic()
        results.append(step())
        longest = max(longest, time.monotonic() - t)


def end_to_end(binary, workload, seed, seconds, checks):
    digests = set()

    def one_pass():
        fails, _, res = run_process(
            binary, ["pass", workload, "--seed", str(seed)])
        checks.count(res, fails)
        digests.add(res["digest"])
        return res

    passes = repeat(seconds, MIN_PASSES, one_pass)
    if len(digests) != 1:
        checks.problems.append(
            f"{workload}: passes of seed {seed} disagree: {sorted(digests)}")
    digest = passes[0]["digest"]
    print(f"{workload} seed {seed}: {len(passes)} passes, digest {digest}")
    checks.default_digest(binary, workload,
                          digest if seed == DEFAULT_SEED else None)

    # Wall time and memory are medians over the passes. Set-up is a few
    # hundred microseconds of allocation, whose upper tail is allocator and
    # cache noise; its lowest pass repeats far better across runs.
    metrics = {}
    for name, unit, pick, how in (("wall_s", "s", statistics.median, "median"),
                                  ("setup_s", "s", min, "lowest"),
                                  ("max_rss_mb", "MB", statistics.median,
                                   "median")):
        values = [p[name] for p in passes]
        lo, hi = quartiles(values)
        metrics[name] = {"value": pick(values), "unit": unit}
        print(f"  {name:<14} {pick(values):.6g} {unit} ({how} of "
              f"{len(values)} passes; quartiles {lo:.6g}..{hi:.6g})")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"  failed_share   {failed / attempted:.6g} "
          f"({failed} of {attempted} cells/jobs over all passes)")
    metrics["verified_share"] = {"value": 1.0 - failed / attempted,
                                 "unit": "share"}
    return metrics


def per_layer(binary, first, seed, seconds, checks):
    order = [first] + [w for w in WORKLOADS if w != first]
    spans = build_dir() / "spans"
    spans.mkdir(parents=True, exist_ok=True)

    shown = set()

    def one_round():
        merged = {}
        for w in order:
            path = spans / f"{w}-seed{seed}.json"
            fails, other, res = run_process(
                binary, ["trace", w, "--seed", str(seed), "--spans", str(path)])
            checks.count(res, fails)
            if res["digest_untraced"] != res["digest_traced"]:
                checks.problems.append(
                    f"{w}: observer changed the digest "
                    f"({res['digest_untraced']} -> {res['digest_traced']})")
            if w not in shown:
                shown.add(w)
                print(f"{w} traced run, spans in {path}")
                for line in other:
                    print(f"  {line}")
                checks.default_digest(
                    binary, w,
                    res["digest_untraced"] if seed == DEFAULT_SEED else None)
            merged.update(res["metrics"])
        return merged

    rounds = repeat(seconds, 1, one_round)
    missing = set(PER_LAYER_UNITS) ^ set(rounds[0])
    if missing:
        checks.problems.append(
            f"per-layer metric set mismatch: {sorted(missing)}")
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [r[name] for r in rounds if name in r]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"  {name:<40} {metrics[name]['value']:.6g} {unit}")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    checks = Checks()
    if args.trace:
        metrics = per_layer(binary, args.workload, args.seed, args.seconds,
                            checks)
    else:
        metrics = end_to_end(binary, args.workload, args.seed, args.seconds,
                             checks)
    for line in checks.fail_lines:
        print(line)
    for p in checks.problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": checks.correct,
                      "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
