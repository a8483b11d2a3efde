// End-to-end execution of admitted pipeline tasks.
//
// A pipeline task moves through the stages in order (precedence-constrained
// chain): the departure from stage j is the arrival at stage j+1, exactly
// the model of Sec. 2. That is Theorem 2's chain case, so this runtime is a
// front end over DagRuntime, the one execution engine: each TaskSpec runs
// as its chain GraphTaskSpec (stage j on resource j, edges j -> j+1). The
// engine feeds the synthetic-utilization tracker the two runtime signals
// the admission scheme needs — subtask departures and stage-idle
// transitions — and records end-to-end response times and deadline misses.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/synthetic_utilization.h"
#include "core/task.h"
#include "metrics/counters.h"
#include "obs/stage_observer.h"
#include "pipeline/dag_runtime.h"
#include "pipeline/trace.h"
#include "sched/stage_executor.h"
#include "sim/simulator.h"

namespace frap::pipeline {

// Maps a task to its fixed priority value (smaller = more urgent). Must not
// depend on arrival time (fixed-priority assumption of the paper). Only
// consulted by fixed-priority scheduling; dynamic policies (EDF/LLF) derive
// dispatch keys from the job's absolute deadline instead.
using PriorityPolicy = std::function<sched::PriorityValue(const core::TaskSpec&)>;

// Deadline-monotonic: priority value = relative deadline (optimal
// fixed-priority policy for aperiodic tasks; alpha = 1).
PriorityPolicy deadline_monotonic_policy();

class PipelineRuntime {
 public:
  // `tracker` may be null (no admission bookkeeping, e.g. no-admission
  // baselines). If given, it must have num_stages() == `stages`.
  // `policy` selects the dispatch discipline for every stage executor
  // (sched/policy.h); `procs_per_stage` > 1 backs each stage with a
  // PooledStageServer of that many processors (global scheduling — with
  // edf_policy() this is gEDF) instead of a single-processor StageServer.
  PipelineRuntime(
      sim::Simulator& sim, std::size_t stages,
      core::SyntheticUtilizationTracker* tracker,
      const sched::SchedulingPolicy& policy = sched::fixed_priority_policy(),
      std::size_t procs_per_stage = 1);

  PipelineRuntime(const PipelineRuntime&) = delete;
  PipelineRuntime& operator=(const PipelineRuntime&) = delete;

  std::size_t num_stages() const { return engine_.num_resources(); }
  sched::StageExecutor& stage(std::size_t j) { return engine_.resource(j); }
  const sched::StageExecutor& stage(std::size_t j) const {
    return engine_.resource(j);
  }

  // The scheduling policy every stage dispatches through.
  const sched::SchedulingPolicy& scheduling_policy() const {
    return engine_.scheduling_policy();
  }

  void set_priority_policy(PriorityPolicy policy);

  // Optional lifecycle tracing (Release / StageDeparture / Complete / Shed
  // events). The log must outlive the runtime; pass nullptr to detach.
  void set_trace(TraceLog* trace) { engine_.set_trace(trace); }

  // Optional per-stage gauges (queue depth, sojourn histograms; see
  // docs/observability.md). Must have num_stages() stages and outlive the
  // runtime; nullptr detaches. Aborted tasks depart their current stage so
  // queue-depth gauges conserve.
  void set_stage_observer(obs::StageObserver* observer) {
    engine_.set_stage_observer(observer);
  }

  // Callback at task completion: (spec, response_time, missed_deadline).
  // The spec reference is valid only during the call.
  using CompletionCallback =
      std::function<void(const core::TaskSpec&, Duration, bool)>;
  void set_on_task_complete(CompletionCallback cb);

  // Releases an admitted task into stage 1 now. `absolute_deadline` is the
  // miss threshold (arrival + D for immediate admission; still anchored at
  // the original arrival for tasks admitted after waiting).
  void start_task(const core::TaskSpec& spec, Time absolute_deadline);

  // Aborts a task wherever it currently is (load shedding). No-op when the
  // task already completed. Does not touch the tracker — the shedding
  // controller removes contributions itself.
  void abort_task(std::uint64_t task_id) { engine_.abort_task(task_id); }

  // True while the task is still executing in the pipeline.
  bool task_in_flight(std::uint64_t task_id) const {
    return engine_.task_in_flight(task_id);
  }

  // True once the task has consumed ANY processor time. Shedding a task
  // that already executed is unsound (its past interference is real but
  // its synthetic-utilization contribution would vanish), so shedding
  // filters use this predicate. Unknown/completed tasks report true
  // (conservative: not sheddable).
  bool task_started_executing(std::uint64_t task_id) const {
    return engine_.task_started_executing(task_id);
  }

  // --- statistics ---
  std::uint64_t started() const { return engine_.started(); }
  std::uint64_t completed() const { return engine_.completed(); }
  std::uint64_t aborted() const { return engine_.aborted(); }
  const metrics::RatioTracker& misses() const { return engine_.misses(); }
  const metrics::RunningStats& response_times() const {
    return engine_.response_times();
  }

  // Real utilization of each stage over [from, to].
  std::vector<double> stage_utilizations(Time from, Time to) const {
    return engine_.resource_utilizations(from, to);
  }

  // Allocation-free overload into a caller-owned buffer of exactly
  // num_stages() elements.
  void stage_utilizations(Time from, Time to, std::span<double> out) const {
    engine_.resource_utilizations(from, to, out);
  }

 private:
  DagRuntime engine_;
  PriorityPolicy policy_;
  CompletionCallback on_complete_;
  core::TaskSpec completed_spec_;  // reused for every completion callback
};

}  // namespace frap::pipeline
