// Chain differential: a pipeline is Theorem 2's chain case, so running a
// pipeline workload through PipelineRuntime and running the same workload
// through DagRuntime fed GraphTaskSpec::from_pipeline must be
// indistinguishable. 1000 seeded random workloads drive both runtimes in
// lockstep (one simulator event at a time) over DM, random fixed, EDF and
// LLF priorities, PCP critical sections, aborts, idle reset and zero-length
// stages. After every event the two worlds must agree bit for bit (`==` on
// every double): clock, tracker utilizations, in-flight and
// started-executing answers, counters, per-stage preemptions and meter busy
// time, and the stage observer's gauges. At the end the completion records
// (order, time, response, miss) and the trace logs must be equal too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "core/synthetic_utilization.h"
#include "core/task.h"
#include "core/task_graph.h"
#include "obs/stage_observer.h"
#include "pipeline/dag_runtime.h"
#include "pipeline/pipeline_runtime.h"
#include "pipeline/trace.h"
#include "sched/policy.h"
#include "sim/simulator.h"

namespace frap::pipeline {
namespace {

constexpr int kSeeds = 1000;

enum class Priorities { kDeadlineMonotonic, kRandomFixed, kEdf, kLlf };

struct Arrival {
  Time at = 0;
  core::TaskSpec spec;
};

struct Abort {
  Time at = 0;
  std::uint64_t id = 0;
};

struct Workload {
  std::size_t stages = 1;
  Priorities priorities = Priorities::kDeadlineMonotonic;
  bool idle_reset = true;
  std::vector<Arrival> arrivals;
  std::vector<Abort> aborts;
};

// Random fixed priority from the task id alone (arrival-independent, as the
// fixed-priority model requires).
sched::PriorityValue random_priority(std::uint64_t id) {
  std::uint64_t x = id * 0x9E3779B97F4A7C15ULL;
  x ^= x >> 29;
  return static_cast<double>(x % 1000003);
}

const sched::SchedulingPolicy& scheduling_policy(Priorities p) {
  switch (p) {
    case Priorities::kEdf:
      return sched::edf_policy();
    case Priorities::kLlf:
      return sched::llf_policy();
    default:
      return sched::fixed_priority_policy();
  }
}

Workload make_workload(int seed) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
  auto uniform = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto coin = [&](double p) { return uniform(0.0, 1.0) < p; };

  Workload w;
  w.stages = 1 + static_cast<std::size_t>(rng() % 5);
  w.priorities = static_cast<Priorities>(seed % 4);
  w.idle_reset = (seed / 4) % 4 != 0;
  // PCP needs static priorities.
  const bool locks = (w.priorities == Priorities::kDeadlineMonotonic ||
                      w.priorities == Priorities::kRandomFixed) &&
                     coin(0.5);
  const std::size_t tasks = 8 + static_cast<std::size_t>(rng() % 25);
  Time t = 0;
  for (std::size_t i = 0; i < tasks; ++i) {
    t += std::exponential_distribution<double>(5.0)(rng);
    core::TaskSpec spec;
    spec.id = 100 + i;
    spec.deadline = uniform(0.3, 2.5);
    spec.importance = uniform(0.0, 1.0);
    spec.stages.resize(w.stages);
    for (auto& stage : spec.stages) {
      if (coin(0.15)) continue;  // zero-length stage
      if (locks && coin(0.5)) {
        const int lock = static_cast<int>(rng() % 2);
        const Duration before = uniform(0.0, 0.08);
        const Duration held = uniform(0.005, 0.08);
        const Duration after = uniform(0.0, 0.08);
        stage.segments = {sched::Segment{before, sched::kNoLock},
                          sched::Segment{held, lock},
                          sched::Segment{after, sched::kNoLock}};
        stage.compute = before + held + after;
      } else {
        stage.compute = uniform(0.0, 0.25);
      }
    }
    if (coin(0.25)) {
      const Time at = std::max(0.0, t + uniform(-0.05, spec.deadline));
      w.aborts.push_back(Abort{at, spec.id});
    }
    w.arrivals.push_back(Arrival{t, std::move(spec)});
  }
  return w;
}

struct Completion {
  std::uint64_t id = 0;
  Time at = 0;
  Duration response = 0;
  bool missed = false;

  bool operator==(const Completion&) const = default;
};

// Everything observable about one world at one instant.
struct Snapshot {
  Time now = 0;
  std::vector<double> utilizations;
  std::vector<int> in_flight;
  std::vector<int> started_executing;
  std::vector<std::uint64_t> counters;
  std::vector<double> responses;
  std::vector<std::uint64_t> preemptions;
  std::vector<double> busy;
  std::vector<std::uint64_t> gauges;
  std::vector<double> sojourn_sums;
};

// One simulated pipeline: a runtime, its tracker, trace and observer.
template <class Runtime>
struct World {
  explicit World(const Workload& w)
      : tracker(sim, w.stages),
        observer(w.stages),
        runtime(sim, w.stages, &tracker, scheduling_policy(w.priorities)) {
    tracker.set_idle_reset_enabled(w.idle_reset);
    runtime.set_trace(&trace);
    runtime.set_stage_observer(&observer);
  }

  template <class StartFn>
  void schedule(const Workload& w, StartFn start) {
    for (const auto& a : w.arrivals) {
      sim.at(a.at, [this, &a, start] {
        const Time deadline = sim.now() + a.spec.deadline;
        tracker.add(a.spec.id, a.spec.contributions(), deadline);
        start(runtime, a.spec, deadline);
      });
    }
    for (const auto& ab : w.aborts) {
      sim.at(ab.at, [this, id = ab.id] {
        runtime.abort_task(id);
        tracker.remove_task(id);
      });
    }
  }

  void on_complete(std::uint64_t id, Duration response, bool missed) {
    done.push_back(Completion{id, sim.now(), response, missed});
  }

  Snapshot snapshot(const Workload& w) {
    Snapshot s;
    s.now = sim.now();
    s.utilizations = tracker.utilizations();
    for (const auto& a : w.arrivals) {
      s.in_flight.push_back(runtime.task_in_flight(a.spec.id) ? 1 : 0);
      s.started_executing.push_back(
          runtime.task_started_executing(a.spec.id) ? 1 : 0);
    }
    s.counters = {runtime.started(),        runtime.completed(),
                  runtime.aborted(),        runtime.misses().hits(),
                  runtime.misses().total(), runtime.response_times().count()};
    s.responses = {runtime.response_times().mean(),
                   runtime.response_times().min(),
                   runtime.response_times().max()};
    for (std::size_t j = 0; j < w.stages; ++j) {
      const sched::StageExecutor& stage = executor(j);
      s.preemptions.push_back(stage.preemptions());
      s.busy.push_back(stage.meter().busy_time(0, sim.now()));
    }
    for (const auto& g : observer.snapshot()) {
      s.gauges.insert(s.gauges.end(), {g.enqueued, g.departed, g.queue_depth,
                                       g.peak_depth, g.sojourn.total()});
      for (std::size_t b = 0; b < g.sojourn.bucket_count(); ++b) {
        s.gauges.push_back(g.sojourn.bucket(b));
      }
      s.sojourn_sums.push_back(g.sojourn.sum());
    }
    return s;
  }

  sched::StageExecutor& executor(std::size_t j);

  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker;
  obs::StageObserver observer;
  TraceLog trace;
  Runtime runtime;
  std::vector<Completion> done;
};

template <>
sched::StageExecutor& World<PipelineRuntime>::executor(std::size_t j) {
  return runtime.stage(j);
}

template <>
sched::StageExecutor& World<DagRuntime>::executor(std::size_t j) {
  return runtime.resource(j);
}

void expect_equal(const Snapshot& a, const Snapshot& b) {
  EXPECT_EQ(a.now, b.now);
  EXPECT_EQ(a.utilizations, b.utilizations);
  EXPECT_EQ(a.in_flight, b.in_flight);
  EXPECT_EQ(a.started_executing, b.started_executing);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.responses, b.responses);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.busy, b.busy);
  EXPECT_EQ(a.gauges, b.gauges);
  EXPECT_EQ(a.sojourn_sums, b.sojourn_sums);
}

void expect_same_trace(const TraceLog& a, const TraceLog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << "trace event " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << "trace event " << i;
    EXPECT_EQ(a[i].task_id, b[i].task_id) << "trace event " << i;
    EXPECT_EQ(a[i].detail, b[i].detail) << "trace event " << i;
  }
}

// Coverage tallies, so a generator change that stops exercising a feature
// fails loudly instead of passing vacuously.
struct Coverage {
  std::uint64_t completions = 0;
  std::uint64_t aborted = 0;
  std::uint64_t misses = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t locked_segments = 0;
  std::uint64_t zero_stages = 0;
};

void run_seed(int seed, Coverage& cov) {
  const Workload w = make_workload(seed);
  for (const auto& a : w.arrivals) {
    for (const auto& st : a.spec.stages) {
      if (st.compute == 0) ++cov.zero_stages;
      for (const auto& seg : st.segments) {
        if (seg.lock != sched::kNoLock) ++cov.locked_segments;
      }
    }
  }

  World<PipelineRuntime> pipe(w);
  World<DagRuntime> dag(w);
  if (w.priorities == Priorities::kRandomFixed) {
    pipe.runtime.set_priority_policy(
        [](const core::TaskSpec& s) { return random_priority(s.id); });
    dag.runtime.set_priority_policy(
        [](const core::GraphTaskSpec& s) { return random_priority(s.id); });
  }
  pipe.runtime.set_on_task_complete(
      [&pipe](const core::TaskSpec& s, Duration r, bool m) {
        pipe.on_complete(s.id, r, m);
      });
  dag.runtime.set_on_task_complete(
      [&dag](const core::GraphTaskSpec& s, Duration r, bool m) {
        dag.on_complete(s.id, r, m);
      });
  pipe.schedule(w, [](PipelineRuntime& rt, const core::TaskSpec& spec,
                      Time deadline) { rt.start_task(spec, deadline); });
  dag.schedule(w, [](DagRuntime& rt, const core::TaskSpec& spec,
                     Time deadline) {
    rt.start_task(core::GraphTaskSpec::from_pipeline(spec), deadline);
  });

  for (std::uint64_t event = 0;; ++event) {
    const std::size_t ran_pipe = pipe.sim.step();
    const std::size_t ran_dag = dag.sim.step();
    ASSERT_EQ(ran_pipe, ran_dag) << "event " << event;
    if (ran_pipe == 0) break;
    expect_equal(pipe.snapshot(w), dag.snapshot(w));
    ASSERT_FALSE(::testing::Test::HasFailure()) << "event " << event;
  }

  EXPECT_EQ(pipe.done, dag.done);
  expect_same_trace(pipe.trace, dag.trace);
  EXPECT_EQ(pipe.runtime.completed() + pipe.runtime.aborted(),
            w.arrivals.size());
  cov.completions += pipe.runtime.completed();
  cov.aborted += pipe.runtime.aborted();
  cov.misses += pipe.runtime.misses().hits();
  for (std::size_t j = 0; j < w.stages; ++j) {
    cov.preemptions += pipe.runtime.stage(j).preemptions();
  }
}

TEST(RuntimeChainDifferentialTest, PipelineEqualsDagChainBitForBit) {
  Coverage cov;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    run_seed(seed, cov);
    if (HasFailure()) return;
  }
  EXPECT_GT(cov.completions, 0u);
  EXPECT_GT(cov.aborted, 0u);
  EXPECT_GT(cov.misses, 0u);
  EXPECT_GT(cov.preemptions, 0u);
  EXPECT_GT(cov.locked_segments, 0u);
  EXPECT_GT(cov.zero_stages, 0u);
}

}  // namespace
}  // namespace frap::pipeline
