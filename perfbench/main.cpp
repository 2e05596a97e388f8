// perfbench: one pass of one workload per process, so no cache or memo
// survives from one timed pass into the next. run.py drives it.
//
//   perfbench pass  <workload> [--seed N] [--tiny] [--perturb] [--force-fail]
//                   [--force-hang]
//   perfbench trace <workload> [same options] --spans PATH
//
// Every failed cell or job is printed as a FAIL line. The last line of
// stdout is one JSON object: the pass's host times, peak RSS, failure
// counts and simulated-output digest, or the traced run's per-layer
// metrics and its untraced/traced digests.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "sweep/emit.hpp"
#include "sweep/json.hpp"

namespace {

using perfbench::Outcome;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench pass|trace <workload> [--seed N] [--tiny] "
               "[--perturb] [--force-fail] [--force-hang] [--spans PATH]\n",
               msg);
  std::exit(2);
}

double max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Prints every failed outcome; returns how many failed.
int list_failures(const std::vector<Outcome>& outcomes) {
  int failed = 0;
  for (const Outcome& o : outcomes) {
    if (o.ok) continue;
    ++failed;
    // Multi-line reasons (hang reports) stay indented under their FAIL line.
    std::string reason;
    for (const char c : o.reason) {
      reason += c == '\n' ? std::string("\n    ") : std::string(1, c);
    }
    std::printf("FAIL %s kind=%s slice=[%s]: %s\n", o.id.c_str(),
                o.kind.c_str(), o.slice.c_str(), reason.c_str());
  }
  return failed;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage("missing mode or workload");
  const std::string_view mode = argv[1];
  const std::string_view name = argv[2];
  if (mode != "pass" && mode != "trace") usage("mode must be pass or trace");

  perfbench::Options opt;
  std::string spans_path;
  for (int i = 3; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      const char* v = argv[++i];
      opt.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *v == '-' || *end != '\0') usage("bad --seed");
    } else if (a == "--spans" && i + 1 < argc) {
      spans_path = argv[++i];
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--perturb") {
      opt.perturb = true;
    } else if (a == "--force-fail") {
      opt.force_fail = true;
    } else if (a == "--force-hang") {
      opt.force_hang = true;
    } else {
      usage("unknown argument");
    }
  }
  const perfbench::Workload* w = nullptr;
  for (const perfbench::Workload& cand : perfbench::workloads()) {
    if (name == cand.name) w = &cand;
  }
  if (w == nullptr) usage("unknown workload");
  if (mode == "trace" && spans_path.empty()) usage("trace needs --spans");

  try {
    sweep::JsonWriter j;
    j.begin_object();
    j.key("workload");
    j.value(w->name);
    j.key("seed");
    j.value(static_cast<std::int64_t>(opt.seed));
    if (mode == "pass") {
      const perfbench::PassResult r = w->pass(opt);
      const int failed = list_failures(r.outcomes);
      j.key("setup_s");
      j.value(r.setup_s);
      j.key("wall_s");
      j.value(r.wall_s);
      j.key("max_rss_mb");
      j.value(max_rss_mb());
      j.key("attempted");
      j.value(r.outcomes.size());
      j.key("failed");
      j.value(failed);
      j.key("digest");
      j.value(r.digest);
    } else {
      perfbench::Tracer tracer;
      const perfbench::TraceResult r = w->trace(opt, tracer);
      const int failed = list_failures(r.outcomes);
      sweep::write_file(spans_path, tracer.to_json());
      std::printf("self time by span (ms):\n");
      for (const auto& [span, ms] : tracer.self_ms()) {
        std::printf("  %-32s %12.3f\n", span.c_str(), ms);
      }
      j.key("attempted");
      j.value(r.outcomes.size());
      j.key("failed");
      j.value(failed);
      j.key("digest_untraced");
      j.value(r.digest_untraced);
      j.key("digest_traced");
      j.value(r.digest_traced);
      j.key("metrics");
      j.begin_object();
      for (const auto& [metric, v] : r.metrics) {
        j.key(metric);
        j.value(v);
      }
      j.end_object();
    }
    j.end_object();
    std::printf("%s\n", j.str().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
