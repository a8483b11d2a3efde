// frapbench: runs one workload of the frap end-to-end benchmark and prints
// its result as one JSON line (see README.md).
//
//   frapbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//   frapbench --self-test
//
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. A per-layer metric of a layer the workload does not call is
// reported as 0; every other metric must be finite and nonzero (a few
// counts excepted), or the run exits 1.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "checks.h"
#include "common.h"

namespace frapbench {
namespace {

// Every per-layer metric, in output order, with its unit.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"ingest.decode_ns", "ns"},
    {"ingest.assemble_ns", "ns"},
    {"sim.advance_ns", "ns"},
    {"sim.events", "count"},
    {"core.admit_ns", "ns"},
    {"core.reject_ns", "ns"},
    {"core.admits", "count"},
    {"core.rejects", "count"},
    {"core.live_tasks", "count"},
    {"service.atomic_admit_ns", "ns"},
    {"service.locked_ns", "ns"},
    {"service.fallback_ns", "ns"},
    {"service.atomic_admits", "count"},
    {"service.atomic_rejects", "count"},
    {"service.atomic_inconclusive", "count"},
    {"service.fallback_admits", "count"},
    {"service.fallback_rejects", "count"},
    {"service.rebalances", "count"},
    {"service.fallback_ratio", "fraction"},
    {"pipeline.start_ns", "ns"},
    {"pipeline.completed", "count"},
    {"sched.busy_frac", "fraction"},
    {"sched.preemptions", "count"},
    {"core.intern_ns", "ns"},
    {"core.graph_admit_ns", "ns"},
    {"core.graph_reject_ns", "ns"},
    {"core.shapes", "count"},
    {"obs.events", "count"},
    {"obs.dropped", "count"},
    {"obs.render_ns", "ns"},
    {"bench.arrival_ns", "ns"},
    {"bench.trace_overhead_pct", "%"},
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: frapbench --workload ingest_churn|sharded_skew|"
               "pipeline_sim|dag_sim --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n       frapbench --self-test\n");
  std::exit(2);
}

// Orders the metrics, fills per-layer metrics the workload does not
// exercise with 0, and records a problem for any missing, zero, NaN or
// infinite value.
void finalize(Result& r, bool traced) {
  std::vector<Metric> out;
  if (traced) {
    std::vector<std::string> idle;
    for (const auto& [name, unit] : kLayerMetrics) {
      const Metric* got = nullptr;
      for (const Metric& m : r.metrics)
        if (m.name == name) got = &m;
      if (got == nullptr) {
        out.push_back({name, 0.0, unit, true});
        idle.push_back(name);
      } else if (got->unit != unit) {
        r.fail_check(std::string("unit of ") + name + " is " + got->unit);
      } else {
        out.push_back(*got);
      }
    }
    if (!idle.empty()) {
      std::string list;
      for (const auto& n : idle) list += " " + n;
      std::fprintf(stderr, "not exercised by this workload (0):%s\n",
                   list.c_str());
    }
  } else {
    out = r.metrics;
  }
  for (const Metric& m : r.metrics) {
    bool known = !traced;
    for (const auto& [name, unit] : kLayerMetrics) known |= m.name == name;
    if (!known) r.fail_check("unlisted metric " + m.name);
  }
  for (const Metric& m : out) {
    if (!std::isfinite(m.value))
      r.fail_check(m.name + " is not finite");
    else if (m.value == 0 && !m.may_be_zero)
      r.fail_check(m.name + " is 0");
  }
  r.metrics = std::move(out);
}

void print(const Result& r) {
  for (const auto& p : r.problems)
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace frapbench

int main(int argc, char** argv) {
  using namespace frapbench;
  // glibc raises its mmap threshold when a large block is freed, so the
  // input pools of the earlier setups (each run sets up kSetupRepeats
  // times) would be carved from the heap afterwards and fragment it: the
  // high-water mark read as peak_rss_mb then grew with every setup, by an
  // amount that depended on the seed (24-36 MiB in pipeline_sim). Pinned at
  // glibc's initial 128 KiB, large blocks always come from mmap and return
  // to the system when freed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      const std::string why = self_test();
      if (!why.empty()) {
        std::fprintf(stderr, "self-test FAILED: %s\n", why.c_str());
        return 1;
      }
      std::fprintf(stderr, "self-test passed\n");
      return 0;
    }
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      usage();
    }
  }
  if (!have_workload || !(o.seconds > 0)) usage();

  // The checks must reject corrupted results before they may pass this run.
  if (const std::string why = self_test(); !why.empty()) {
    std::fprintf(stderr, "self-test FAILED: %s\n", why.c_str());
    return 1;
  }

  Result r;
  if (o.workload == "ingest_churn") {
    r = run_ingest_churn(o);
  } else if (o.workload == "sharded_skew") {
    r = run_sharded_skew(o);
  } else if (o.workload == "pipeline_sim") {
    r = run_pipeline_sim(o);
  } else if (o.workload == "dag_sim") {
    r = run_dag_sim(o);
  } else {
    usage();
  }
  finalize(r, o.trace);
  if (r.attempted == 0) r.fail_check("no arrival attempted");
  print(r);
  return r.correct ? 0 : 1;
}
