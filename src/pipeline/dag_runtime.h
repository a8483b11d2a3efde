// End-to-end execution of admitted DAG tasks (Sec. 3.3) over a set of
// independent resources. This is frap's one execution engine: the pipeline
// runtime (pipeline_runtime.h) is a front end that feeds it each pipeline
// task as its chain, Theorem 2's single-path case.
//
// A node becomes ready when all its predecessors finish; ready nodes are
// submitted to their resource's stage executor. The task completes when
// every node has finished (its end-to-end delay is then the realized
// critical path). Departure signals for the synthetic-utilization tracker
// fire per RESOURCE: a task departs resource k once its last node on k
// completes, generalizing the pipeline's per-stage departure.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/synthetic_utilization.h"
#include "core/task_graph.h"
#include "metrics/counters.h"
#include "obs/stage_observer.h"
#include "pipeline/trace.h"
#include "sched/stage_executor.h"
#include "sim/simulator.h"

namespace frap::pipeline {

class PipelineRuntime;

class DagRuntime : private sched::StageListener {
 public:
  // `tracker` may be null; when given it must have one stage per resource.
  // `policy` selects the per-resource dispatch discipline (sched/policy.h);
  // node jobs carry the task's end-to-end absolute deadline for EDF/LLF.
  // `procs_per_resource` > 1 backs each resource with a PooledStageServer
  // of that many processors (global scheduling — with edf_policy() this is
  // gEDF) instead of a single-processor StageServer.
  DagRuntime(
      sim::Simulator& sim, std::size_t num_resources,
      core::SyntheticUtilizationTracker* tracker,
      const sched::SchedulingPolicy& policy = sched::fixed_priority_policy(),
      std::size_t procs_per_resource = 1);

  DagRuntime(const DagRuntime&) = delete;
  DagRuntime& operator=(const DagRuntime&) = delete;

  std::size_t num_resources() const { return servers_.size(); }
  sched::StageExecutor& resource(std::size_t k) { return *servers_[k]; }
  const sched::StageExecutor& resource(std::size_t k) const {
    return *servers_[k];
  }

  // The scheduling policy every resource dispatches through.
  const sched::SchedulingPolicy& scheduling_policy() const {
    return servers_.front()->policy();
  }

  using CompletionCallback =
      std::function<void(const core::GraphTaskSpec&, Duration, bool)>;
  void set_on_task_complete(CompletionCallback cb) {
    on_complete_ = std::move(cb);
  }

  // Priority value used for all of a task's nodes (fixed priority). Default:
  // deadline-monotonic (value = relative deadline).
  void set_priority_policy(
      std::function<sched::PriorityValue(const core::GraphTaskSpec&)> policy);

  // Optional lifecycle tracing (Release / StageDeparture(resource) /
  // Complete / Shed). The log must outlive the runtime; nullptr detaches.
  void set_trace(TraceLog* trace) { trace_ = trace; }

  // Optional per-resource gauges (queue depth, node sojourn histograms; one
  // observer "stage" per resource). Must outlive the runtime; nullptr
  // detaches. Every node release is an enqueue on its resource and every
  // node completion (or abort of a released node) a departure.
  void set_stage_observer(obs::StageObserver* observer);

  // Releases an admitted DAG task now; all source nodes enter their
  // resources immediately.
  void start_task(const core::GraphTaskSpec& spec, Time absolute_deadline);

  // Aborts a DAG task wherever its nodes currently are: running/queued
  // node jobs are removed from their resources, pending nodes never
  // release. No-op for unknown/completed ids. Does not touch the tracker
  // (shedding controllers remove contributions themselves).
  void abort_task(std::uint64_t task_id);

  bool task_in_flight(std::uint64_t task_id) const {
    return execs_.find(task_id) != execs_.end();
  }

  // True once any node of the task has consumed processor time (the
  // sound-shedding predicate; unknown/completed ids report true).
  bool task_started_executing(std::uint64_t task_id) const;

  std::uint64_t aborted() const { return aborted_; }

  std::uint64_t started() const { return started_; }
  std::uint64_t completed() const { return completed_; }
  const metrics::RatioTracker& misses() const { return misses_; }
  const metrics::RunningStats& response_times() const { return response_; }

  std::vector<double> resource_utilizations(Time from, Time to) const;

  // Allocation-free overload into a caller-owned buffer of exactly
  // num_resources() elements.
  void resource_utilizations(Time from, Time to, std::span<double> out) const;

 private:
  friend class PipelineRuntime;

  // Where a task's successor lists come from.
  enum class Topology : std::uint8_t {
    kGeneral,   // built per task from spec.edges (Exec::successors)
    kInterned,  // the interned shape's CSR (spec.shape)
    kChain,     // node i -> i + 1 (pipeline front end)
  };

  struct Exec;

  // A released node's job; it knows its task and node, so a completion
  // needs no job -> task lookup.
  struct NodeJob : sched::Job {
    NodeJob(std::uint64_t id, sched::PriorityValue priority,
            std::vector<sched::Segment> segments, Exec& owner,
            std::uint32_t index)
        : Job(id, priority, std::move(segments)), exec(&owner), node(index) {}
    Exec* exec;
    std::uint32_t node;
  };

  // Everything the runtime tracks per node of one task.
  struct Node {
    std::optional<NodeJob> job;  // engaged once the node is released
    Time release = kTimeZero;
    std::uint32_t pending_preds = 0;
    // The node of the same resource that holds the resource's count of
    // unfinished nodes (the task departs the resource when it reaches 0).
    std::uint32_t resource_head = 0;
    std::uint32_t left_on_resource = 0;  // meaningful on the head only
    // kGeneral: this node's successors are Exec::successors[begin, end).
    std::uint32_t succ_begin = 0;
    std::uint32_t succ_end = 0;
  };

  struct Exec {
    core::GraphTaskSpec spec;
    Time release = kTimeZero;
    Time absolute_deadline = kTimeZero;
    sched::PriorityValue priority = 0;
    Topology topology = Topology::kGeneral;
    std::vector<Node> nodes;  // per node; never resized once built
    std::vector<std::uint32_t> successors;  // kGeneral only
    std::size_t nodes_remaining = 0;
  };

  // Shared start path. `spec` must already be validated for `topology`.
  void start(core::GraphTaskSpec spec, Time absolute_deadline,
             sched::PriorityValue priority, Topology topology);

  // StageListener: resources report completion/idle with their index in the
  // tag (set at construction).
  void on_job_complete(sched::StageExecutor& stage, sched::Job& job) override;
  void on_stage_idle(sched::StageExecutor& stage) override;

  void release_node(Exec& exec, std::uint32_t node);
  void satisfy_edge(Exec& exec, std::uint32_t successor);

  sim::Simulator& sim_;
  core::SyntheticUtilizationTracker* tracker_;
  std::vector<std::unique_ptr<sched::StageExecutor>> servers_;
  std::function<sched::PriorityValue(const core::GraphTaskSpec&)> policy_;
  CompletionCallback on_complete_;
  TraceLog* trace_ = nullptr;
  obs::StageObserver* stage_obs_ = nullptr;

  std::unordered_map<std::uint64_t, Exec> execs_;
  std::vector<std::uint32_t> head_scratch_;  // per resource, start() only
  std::uint64_t next_job_id_ = 1;

  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t aborted_ = 0;
  metrics::RatioTracker misses_;
  metrics::RunningStats response_;
};

}  // namespace frap::pipeline
