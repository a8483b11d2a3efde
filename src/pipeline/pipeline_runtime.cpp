#include "pipeline/pipeline_runtime.h"

#include "core/task_graph.h"
#include "util/check.h"

namespace frap::pipeline {

PriorityPolicy deadline_monotonic_policy() {
  return [](const core::TaskSpec& spec) { return spec.deadline; };
}

PipelineRuntime::PipelineRuntime(sim::Simulator& sim, std::size_t stages,
                                 core::SyntheticUtilizationTracker* tracker,
                                 const sched::SchedulingPolicy& sched_policy,
                                 std::size_t procs_per_stage)
    : engine_(sim, stages, tracker, sched_policy, procs_per_stage),
      policy_(deadline_monotonic_policy()) {}

void PipelineRuntime::set_priority_policy(PriorityPolicy policy) {
  FRAP_EXPECTS(policy != nullptr);
  policy_ = std::move(policy);
}

void PipelineRuntime::set_on_task_complete(CompletionCallback cb) {
  on_complete_ = std::move(cb);
  if (!on_complete_) {
    engine_.set_on_task_complete(nullptr);
    return;
  }
  engine_.set_on_task_complete(
      [this](const core::GraphTaskSpec& chain, Duration response,
             bool missed) {
        // Rebuild the TaskSpec in place: once the buffer has grown, copying
        // the stage demands back allocates nothing.
        completed_spec_.id = chain.id;
        completed_spec_.deadline = chain.deadline;
        completed_spec_.importance = chain.importance;
        completed_spec_.stages.resize(chain.nodes.size());
        for (std::size_t j = 0; j < chain.nodes.size(); ++j) {
          completed_spec_.stages[j] = chain.nodes[j].demand;
        }
        on_complete_(completed_spec_, response, missed);
      });
}

void PipelineRuntime::start_task(const core::TaskSpec& spec,
                                 Time absolute_deadline) {
  FRAP_EXPECTS(spec.valid());
  FRAP_EXPECTS(spec.num_stages() == num_stages());
  // A valid TaskSpec is a valid chain by construction, so the engine runs
  // no per-task graph validation.
  engine_.start(core::GraphTaskSpec::from_pipeline(spec), absolute_deadline,
                policy_(spec), DagRuntime::Topology::kChain);
}

}  // namespace frap::pipeline
