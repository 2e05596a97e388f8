#!/usr/bin/env python3
"""Self-test of the benchmark's checks, at a tiny size of every workload.

    python3 perfbench/selftest.py

For each workload it builds (as run.py does) and checks that:
  * the digest repeats across fresh processes;
  * a simulated metric shifted by 1 ns (--perturb) changes the digest;
  * a forced verification failure (--force-fail) is counted, listed with
    its id, kind and device slice, and leaves the digest unchanged;
  * runs forced to hang (--force-hang: every signal lost, no retry) are
    counted and listed with their DeadlockError hang report;
  * the traced run gives the untraced digest with the counting observer
    attached, and writes its spans as valid JSON.
Exits 0 when every check holds.
"""

import json
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark driver in this directory)


def main():
    binary = run.build()
    spans_dir = run.build_dir() / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    failures = 0

    def check(ok, what):
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        failures += 0 if ok else 1

    for w in run.WORKLOADS:
        tiny = ["pass", w, "--tiny"]
        fails, _, base = run.run_process(binary, tiny)
        _, _, again = run.run_process(binary, tiny)
        check(base["failed"] == 0 and not fails,
              f"{w}: tiny pass has no failures")
        check(base["digest"] == again["digest"], f"{w}: digest repeats")

        _, _, perturbed = run.run_process(binary, tiny + ["--perturb"])
        check(perturbed["digest"] != base["digest"],
              f"{w}: perturbed metric changes the digest")

        fails, _, forced = run.run_process(binary, tiny + ["--force-fail"])
        check(forced["failed"] == 1
              and forced["attempted"] == base["attempted"],
              f"{w}: forced verification failure is counted")
        listed = (len(fails) == 1 and " kind=" in fails[0]
                  and " slice=[" in fails[0])
        check(listed, f"{w}: failure listed with id, kind, slice: {fails[:1]}")
        check(forced["digest"] == base["digest"],
              f"{w}: verification outcome stays out of the digest")

        fails, _, hung = run.run_process(binary, tiny + ["--force-hang"])
        reports = [f for f in fails if "deadlock" in f and "blocked on" in f]
        check(hung["failed"] >= 1 and len(reports) == hung["failed"],
              f"{w}: {hung['failed']} forced hang(s) listed with hang reports")

        spans = spans_dir / f"{w}-selftest.json"
        _, _, traced = run.run_process(
            binary, ["trace", w, "--tiny", "--spans", str(spans)])
        same = traced["digest_untraced"] == traced["digest_traced"]
        check(same and traced["digest_traced"] == base["digest"],
              f"{w}: observer leaves the digest unchanged")
        with open(spans) as f:
            doc = json.load(f)
        check(len(doc["spans"]) > 0 and len(doc["self_ms"]) > 0,
              f"{w}: spans written as JSON with a self-time summary")

    print(f"selftest: {failures} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
