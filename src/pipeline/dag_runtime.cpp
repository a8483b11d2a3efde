#include "pipeline/dag_runtime.h"

#include <limits>
#include <string>

#include "core/task_graph_shape.h"
#include "sched/pooled_stage_server.h"
#include "sched/stage_server.h"
#include "util/check.h"

namespace frap::pipeline {

namespace {
constexpr std::uint32_t kNoNode = std::numeric_limits<std::uint32_t>::max();
}  // namespace

DagRuntime::DagRuntime(sim::Simulator& sim, std::size_t num_resources,
                       core::SyntheticUtilizationTracker* tracker,
                       const sched::SchedulingPolicy& sched_policy,
                       std::size_t procs_per_resource)
    : sim_(sim),
      tracker_(tracker),
      policy_([](const core::GraphTaskSpec& s) { return s.deadline; }),
      head_scratch_(num_resources, kNoNode) {
  FRAP_EXPECTS(num_resources >= 1);
  FRAP_EXPECTS(procs_per_resource >= 1);
  FRAP_EXPECTS(tracker_ == nullptr ||
               tracker_->num_stages() == num_resources);
  servers_.reserve(num_resources);
  for (std::size_t k = 0; k < num_resources; ++k) {
    std::string name = "resource-" + std::to_string(k);
    std::unique_ptr<sched::StageExecutor> server;
    if (procs_per_resource == 1) {
      server = std::make_unique<sched::StageServer>(sim_, std::move(name),
                                                    sched_policy);
    } else {
      server = std::make_unique<sched::PooledStageServer>(
          sim_, procs_per_resource, std::move(name), sched_policy);
    }
    server->set_tag(k);
    server->set_listener(this);
    servers_.push_back(std::move(server));
  }
}

void DagRuntime::on_stage_idle(sched::StageExecutor& stage) {
  if (tracker_ != nullptr) tracker_->on_stage_idle(stage.tag());
}

void DagRuntime::set_priority_policy(
    std::function<sched::PriorityValue(const core::GraphTaskSpec&)> policy) {
  FRAP_EXPECTS(policy != nullptr);
  policy_ = std::move(policy);
}

void DagRuntime::set_stage_observer(obs::StageObserver* observer) {
  FRAP_EXPECTS(observer == nullptr ||
               observer->num_stages() == servers_.size());
  stage_obs_ = observer;
}

void DagRuntime::start_task(const core::GraphTaskSpec& spec,
                            Time absolute_deadline) {
  Topology topology = Topology::kGeneral;
  if (spec.shape != nullptr) {
    // Canonicalized spec: the registry validated the graph at intern time
    // and the shape carries indegrees + CSR adjacency, so the per-task
    // validity re-walk (a topological sort per release) is skipped and no
    // successor lists are built — completions walk the shape's CSR.
    FRAP_ASSERT(spec.shape->layout_matches(spec));
    FRAP_EXPECTS(spec.deadline > 0);
    FRAP_EXPECTS(spec.shape->num_nodes() == spec.nodes.size());
    topology = Topology::kInterned;
  } else {
    FRAP_EXPECTS(spec.valid(servers_.size()));
  }
  start(spec, absolute_deadline, policy_(spec), topology);
}

void DagRuntime::start(core::GraphTaskSpec spec, Time absolute_deadline,
                       sched::PriorityValue priority, Topology topology) {
  FRAP_EXPECTS(spec.nodes.size() < kNoNode);
  auto [it, inserted] = execs_.try_emplace(spec.id);
  FRAP_EXPECTS(inserted);
  Exec& exec = it->second;
  exec.spec = std::move(spec);
  exec.release = sim_.now();
  exec.absolute_deadline = absolute_deadline;
  exec.priority = priority;
  exec.topology = topology;
  const auto n = static_cast<std::uint32_t>(exec.spec.nodes.size());
  exec.nodes_remaining = n;
  // Built once at its final size: released jobs live inside the nodes and
  // the stage executors hold pointers to them.
  exec.nodes = std::vector<Node>(n);
  std::vector<Node>& nodes = exec.nodes;

  switch (topology) {
    case Topology::kChain:
      for (std::uint32_t i = 1; i < n; ++i) nodes[i].pending_preds = 1;
      break;
    case Topology::kInterned: {
      const auto indeg = exec.spec.shape->indegree();
      for (std::uint32_t i = 0; i < n; ++i) nodes[i].pending_preds = indeg[i];
      break;
    }
    case Topology::kGeneral: {
      // CSR in edge order: count, prefix-sum, fill.
      for (const auto& e : exec.spec.edges) {
        ++nodes[e.to].pending_preds;
        ++nodes[e.from].succ_end;
      }
      std::uint32_t offset = 0;
      for (Node& node : nodes) {
        node.succ_begin = offset;
        offset += node.succ_end;
        node.succ_end = node.succ_begin;
      }
      exec.successors.resize(exec.spec.edges.size());
      for (const auto& e : exec.spec.edges) {
        exec.successors[nodes[e.from].succ_end++] =
            static_cast<std::uint32_t>(e.to);
      }
      break;
    }
  }

  // The first node on each resource heads that resource's count.
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t r = exec.spec.nodes[i].resource;
    FRAP_EXPECTS(r < servers_.size());
    if (head_scratch_[r] == kNoNode) head_scratch_[r] = i;
    nodes[i].resource_head = head_scratch_[r];
    ++nodes[head_scratch_[r]].left_on_resource;
  }
  for (const auto& node : exec.spec.nodes) {
    head_scratch_[node.resource] = kNoNode;
  }

  ++started_;
  if (trace_ != nullptr) {
    trace_->record(sim_.now(), TraceEventKind::kRelease, exec.spec.id);
  }

  // Release all sources. release_node submits to executors, which complete
  // even zero-length nodes through events, so this loop never re-enters.
  for (std::uint32_t i = 0; i < n; ++i) {
    if (nodes[i].pending_preds == 0) release_node(exec, i);
  }
}

void DagRuntime::release_node(Exec& exec, std::uint32_t i) {
  Node& node = exec.nodes[i];
  const core::GraphNode& spec = exec.spec.nodes[i];
  node.job.emplace(next_job_id_++, exec.priority, spec.demand.make_segments(),
                   exec, i);
  node.job->absolute_deadline = exec.absolute_deadline;
  node.release = sim_.now();
  if (stage_obs_ != nullptr) {
    stage_obs_->on_enqueue(spec.resource, node.release);
  }
  servers_[spec.resource]->submit(*node.job);
}

void DagRuntime::satisfy_edge(Exec& exec, std::uint32_t successor) {
  Node& node = exec.nodes[successor];
  FRAP_ASSERT(node.pending_preds > 0);
  if (--node.pending_preds == 0) release_node(exec, successor);
}

void DagRuntime::on_job_complete(sched::StageExecutor& /*stage*/,
                                 sched::Job& job) {
  // Every job on this runtime's executors is a NodeJob released here.
  const auto& node_job = static_cast<const NodeJob&>(job);
  Exec& exec = *node_job.exec;
  const std::uint32_t i = node_job.node;
  const std::uint64_t task_id = exec.spec.id;

  const std::size_t resource = exec.spec.nodes[i].resource;
  if (stage_obs_ != nullptr) {
    stage_obs_->on_depart(resource, exec.nodes[i].release, sim_.now());
  }
  Node& head = exec.nodes[exec.nodes[i].resource_head];
  FRAP_ASSERT(head.left_on_resource > 0);
  if (--head.left_on_resource == 0) {
    if (tracker_ != nullptr) tracker_->mark_departed(task_id, resource);
    if (trace_ != nullptr) {
      trace_->record(sim_.now(), TraceEventKind::kStageDeparture, task_id,
                     resource);
    }
  }

  FRAP_ASSERT(exec.nodes_remaining > 0);
  --exec.nodes_remaining;
  switch (exec.topology) {
    case Topology::kChain:
      if (i + 1 < exec.nodes.size()) satisfy_edge(exec, i + 1);
      break;
    case Topology::kInterned:
      for (std::uint32_t succ : exec.spec.shape->successors(i)) {
        satisfy_edge(exec, succ);
      }
      break;
    case Topology::kGeneral:
      for (std::uint32_t e = exec.nodes[i].succ_begin;
           e < exec.nodes[i].succ_end; ++e) {
        satisfy_edge(exec, exec.successors[e]);
      }
      break;
  }
  if (exec.nodes_remaining > 0) return;

  // End-to-end completion. Erasing the task frees `job` too.
  const Duration response = sim_.now() - exec.release;
  const bool missed = sim_.now() > exec.absolute_deadline + 1e-12;
  if (trace_ != nullptr) {
    trace_->record(sim_.now(), TraceEventKind::kComplete, task_id,
                   missed ? 1 : 0);
  }
  ++completed_;
  misses_.record(missed);
  response_.add(response);
  if (on_complete_) {
    core::GraphTaskSpec spec = std::move(exec.spec);
    execs_.erase(task_id);
    on_complete_(spec, response, missed);
  } else {
    execs_.erase(task_id);
  }
}

void DagRuntime::abort_task(std::uint64_t task_id) {
  auto et = execs_.find(task_id);
  if (et == execs_.end()) return;
  Exec& exec = et->second;
  for (std::size_t i = 0; i < exec.nodes.size(); ++i) {
    Node& node = exec.nodes[i];
    if (!node.job || !node.job->on_server) continue;
    const std::size_t resource = exec.spec.nodes[i].resource;
    servers_[resource]->abort(*node.job);
    if (stage_obs_ != nullptr) {
      // The shed node still leaves its queue; depart it so the observer's
      // depth gauge conserves (enqueues == departs + in-flight).
      stage_obs_->on_depart(resource, node.release, sim_.now());
    }
  }
  execs_.erase(et);
  ++aborted_;
  if (trace_ != nullptr) {
    trace_->record(sim_.now(), TraceEventKind::kShed, task_id);
  }
}

bool DagRuntime::task_started_executing(std::uint64_t task_id) const {
  auto et = execs_.find(task_id);
  if (et == execs_.end()) return true;  // conservative
  const Exec& exec = et->second;
  if (exec.nodes_remaining < exec.nodes.size()) return true;
  for (const Node& node : exec.nodes) {
    if (node.job && node.job->has_started) return true;
  }
  return false;
}

std::vector<double> DagRuntime::resource_utilizations(Time from,
                                                      Time to) const {
  std::vector<double> u(servers_.size());
  resource_utilizations(from, to, u);
  return u;
}

void DagRuntime::resource_utilizations(Time from, Time to,
                                       std::span<double> out) const {
  FRAP_EXPECTS(out.size() == servers_.size());
  for (std::size_t k = 0; k < servers_.size(); ++k) {
    out[k] = servers_[k]->meter().utilization(from, to);
  }
}

}  // namespace frap::pipeline
