// Admission control against the feasible region (Sec. 4 and Sec. 5).
//
// Two cores decide a task at its arrival instant `now`:
//   * AdmissionController — the paper's pipeline test (Eq. 12): tentatively
//     add the task's per-stage contributions to the tracked synthetic
//     utilizations and admit iff sum_j f(U_j) stays inside the region;
//   * GraphAdmissionController — the same test for DAG tasks (Thm 2), with
//     the critical-path or the long-path bound (docs/dag_bounds.md).
// Both implement frap::Admitter (src/service/admitter.h):
//
//   [[nodiscard]] AdmissionDecision try_admit(const TaskSpec& spec, Time now)
//
// An admitted task's contribution is committed with expiry at
// now + spec.deadline, and the decision records the evaluated LHS pair, the
// bound, and a machine-readable Reason (core/admission_decision.h). Costs
// are independent of how many tasks are in the system — the paper's
// headline complexity claim, exercised by bench/micro_admission.
//
// The pipeline test is incremental and allocation-free: the tracker keeps
// f(U_j) per stage plus the running LHS scalar, so a task touching k stages
// is tested against cached_lhs + sum of k deltas in O(k), without snapshot
// vectors and without evaluating untouched stages (docs/incremental_lhs.md).
// The original full O(N)-with-snapshots evaluation is the test oracle
// frap::testing::ReferenceAdmitter (tests/oracle/), linked by tests and
// benches only.
//
// Policies over the two cores:
//   * approximate admission (Sec. 4.4): the test uses per-stage MEAN
//     computation times instead of the task's actual ones (the actual values
//     still execute), modelling operators who only know averages;
//   * burst admission: a burst is try_admit called per task at one instant
//     (ingest::IngestSession::admit_burst for a decoded wire frame);
//   * waiting admission (Sec. 5), one template for both cores: a rejected
//     task waits a bounded patience in a FIFO queue, retried on utilization
//     decreases, before being finally rejected;
//   * shedding admission (Sec. 5): when an important task does not fit,
//     less important admitted tasks are shed (their contributions removed
//     and their execution aborted) in increasing order of importance until
//     the newcomer fits.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/admission_audit.h"
#include "core/admission_decision.h"
#include "core/feasible_region.h"
#include "core/long_path_bound.h"
#include "core/synthetic_utilization.h"
#include "core/task.h"
#include "core/task_graph.h"
#include "obs/decision_sink.h"
#include "service/admitter.h"
#include "sim/simulator.h"

namespace frap::testing {
class ReferenceAdmitter;  // test-only full-evaluation A/B path
}  // namespace frap::testing

namespace frap::core {

class AdmissionController : public Admitter {
 public:
  AdmissionController(sim::Simulator& sim,
                      SyntheticUtilizationTracker& tracker,
                      FeasibleRegion region);

  // Switches to approximate admission: contributions are computed as
  // mean_compute[j] / D_i instead of C_ij / D_i.
  void set_approximate_means(std::vector<Duration> mean_compute);
  [[nodiscard]] bool approximate() const { return !mean_compute_.empty(); }

  // Quota-capped region view (docs/admission_service.md): every per-stage
  // contribution is multiplied by `scale` before it is tested or committed.
  // With scale = 1/w an unmodified controller enforces the w-slice of the
  // region budget — Jensen's inequality on the convex f makes the per-shard
  // tests globally sound. Must be set while no tasks are live (the tracker's
  // committed contributions are not retroactively rescaled here; the sharded
  // service uses SyntheticUtilizationTracker::rescale_dynamic for that).
  void set_contribution_scale(double scale);
  [[nodiscard]] double contribution_scale() const {
    return contribution_scale_;
  }

  // Canonical admission (Admitter): tests the task arriving at `now`; on
  // admission its contribution is committed with expiry at
  // now + spec.deadline (which must not precede the simulation clock).
  // Incremental fast path: O(stages the task touches), no heap allocation
  // on the test (the commit of an admitted task still creates its tracker
  // record).
  [[nodiscard]] AdmissionDecision try_admit(const TaskSpec& spec,
                                            Time now) override;

  // try_admit with the ADMIT reason overridden: identical test, commit,
  // audit, and trace, but an admitted decision carries (and is traced with)
  // `admit_reason` instead of kAdmitted. The sharded service's atomic fast
  // path uses this to label its exact-path confirmations kAtomicFastPath /
  // kSlowPathFallback without double-recording into the sink. Rejections
  // keep their computed reason regardless.
  [[nodiscard]] AdmissionDecision try_admit_tagged(
      const TaskSpec& spec, Time now, AdmissionDecision::Reason admit_reason);

  // Would the task be admitted right now? No state change. Shares the exact
  // LHS computation and the region's admits() predicate with try_admit(), so
  // the two can never disagree — including on boundary ties.
  [[nodiscard]] bool test(const TaskSpec& spec) const;

  const FeasibleRegion& region() const { return region_; }
  // The bound try_admit() holds `spec` to (the region's, for every task).
  [[nodiscard]] double bound(const TaskSpec& /*spec*/) const {
    return region_.bound();
  }
  SyntheticUtilizationTracker& tracker() { return tracker_; }
  Time now() const { return sim_.now(); }

  // Optional decision auditing; the audit must outlive the controller.
  void set_audit(AdmissionAudit* audit) { audit_ = audit; }

  // Optional decision tracing (docs/observability.md); the sink must
  // outlive the controller. Tracing is passive: it NEVER changes a decision
  // (tests/obs_trace_test.cpp proves bit-identical decisions on/off), and a
  // null sink costs one predictable branch on the hot path.
  void set_sink(obs::DecisionSink* sink) { sink_ = sink; }
  [[nodiscard]] obs::DecisionSink* sink() const { return sink_; }

  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t admitted() const { return admitted_; }
  double acceptance_ratio() const {
    return attempts_ == 0
               ? 0.0
               : static_cast<double>(admitted_) /
                     static_cast<double>(attempts_);
  }

 private:
  friend class ::frap::testing::ReferenceAdmitter;

  std::vector<double> contributions_for(const TaskSpec& spec) const;

  // Per-stage contribution of the task (exact C_ij/D_i or mean_j/D_i),
  // scaled by the quota view.
  double contribution(const TaskSpec& spec, std::size_t j,
                      double inv_deadline) const {
    return (mean_compute_.empty() ? spec.stages[j].compute
                                  : mean_compute_[j]) *
           inv_deadline * contribution_scale_;
  }

  // LHS including the task, computed incrementally from the tracker's
  // cached per-stage f-terms; allocation-free, O(touched stages). When
  // touched_out is non-null it receives the touched-stage count (c_j > 0),
  // piggybacked on the loop this evaluation already runs so an attached
  // DecisionSink never pays a second pass over the stages.
  double incremental_lhs_with(const TaskSpec& spec, double lhs_before,
                              std::uint16_t* touched_out = nullptr) const;

  // Commits an admitted task's contributions via the reusable scratch
  // buffer (no per-call allocation beyond the tracker's task record).
  void commit(const TaskSpec& spec, Time absolute_deadline);

  void record_audit(const TaskSpec& spec, const AdmissionDecision& d);

  sim::Simulator& sim_;
  SyntheticUtilizationTracker& tracker_;
  FeasibleRegion region_;
  std::vector<Duration> mean_compute_;  // empty = exact admission
  // Reused sparse (stage, value) pair buffers for commit(); sized to
  // num_stages() up front so the hot path never grows them.
  std::vector<std::uint32_t> commit_stages_;
  std::vector<double> commit_values_;
  double contribution_scale_ = 1.0;     // 1/w under a quota plan
  AdmissionAudit* audit_ = nullptr;
  obs::DecisionSink* sink_ = nullptr;
  std::uint64_t attempts_ = 0;
  std::uint64_t admitted_ = 0;
};

// Sec. 5 load shedding: admitted tasks register with their semantic
// importance; when a more important arrival does not fit, victims are shed
// in increasing importance order until it does. The shed callback must
// abort the victim's execution in the runtime (its contributions are
// removed here).
class SheddingAdmissionController : public Admitter {
 public:
  using ShedCallback = std::function<void(std::uint64_t task_id)>;
  // Returns true when the task may be shed. SOUNDNESS: a task that has
  // already consumed processor time must NOT be shed — its past
  // interference is real while its synthetic-utilization contribution
  // would vanish, which can make later admissions optimistic enough to
  // miss deadlines (observed in tests). Wire this to
  // PipelineRuntime::task_started_executing (negated). Without a filter
  // every victim is fair game (the paper's unrestricted formulation).
  using ShedFilter = std::function<bool(std::uint64_t task_id)>;

  SheddingAdmissionController(AdmissionController& inner, ShedCallback shed);

  void set_shed_filter(ShedFilter filter) { filter_ = std::move(filter); }

  // Canonical admission (Admitter). A task admitted only after shedding is
  // reported with reason == Reason::kShed.
  [[nodiscard]] AdmissionDecision try_admit(const TaskSpec& spec,
                                            Time now) override;

  std::uint64_t tasks_shed() const { return tasks_shed_; }

 private:
  AdmissionController& inner_;
  ShedCallback shed_;
  ShedFilter filter_;
  // importance -> live task ids at that importance (multimap: FIFO within
  // one importance level).
  std::multimap<double, std::uint64_t> admitted_by_importance_;
  std::uint64_t tasks_shed_ = 0;
};

// Theorem 2: admission for DAG-structured tasks. The region is evaluated
// per task over its graph; contributions are per-resource sums. Pipeline
// TaskSpecs are admitted through the Admitter interface by converting them
// to their chain-graph form (GraphTaskSpec::from_pipeline).
//
// Two pluggable bounds (docs/dag_bounds.md):
//   * GraphRegionEvaluator — the paper's single-critical-path test;
//     evaluated from a full utilization snapshot (re-walk per attempt).
//   * LongPathEvaluator — the per-path long-path bound. Canonicalized specs
//     (spec.shape set) take the incremental fast path: O(touched resources
//     + cached profile entries) per attempt with an allocation-free sparse
//     commit; specs without a shape fall back to the snapshot walk.
class GraphAdmissionController : public Admitter {
 public:
  GraphAdmissionController(sim::Simulator& sim,
                           SyntheticUtilizationTracker& tracker,
                           GraphRegionEvaluator evaluator);
  GraphAdmissionController(sim::Simulator& sim,
                           SyntheticUtilizationTracker& tracker,
                           LongPathEvaluator evaluator);

  [[nodiscard]] AdmissionDecision try_admit(const GraphTaskSpec& spec,
                                            Time now);
  [[nodiscard]] AdmissionDecision try_admit(const TaskSpec& spec,
                                            Time now) override;

  [[nodiscard]] bool long_path() const { return long_path_.has_value(); }
  LongPathEvaluator* long_path_evaluator() {
    return long_path_ ? &*long_path_ : nullptr;
  }

  SyntheticUtilizationTracker& tracker() { return tracker_; }

  // The bound try_admit() holds `spec` to.
  [[nodiscard]] double bound(const GraphTaskSpec& spec) const {
    return long_path_ ? LongPathEvaluator::kDelayBudget
                      : evaluator_->bound(spec);
  }

  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t admitted() const { return admitted_; }

  // Region evaluations performed (one per try_admit attempt, including
  // waiting-queue retries). The waiting controller's headroom gate is
  // pinned against this counter: a decrease that cannot change the front
  // waiter's test must not add an evaluation.
  std::uint64_t evaluations() const { return evaluations_; }

  // Optional decision tracing; same passivity contract as
  // AdmissionController::set_sink.
  void set_sink(obs::DecisionSink* sink) { sink_ = sink; }

 private:
  // Incremental long-path fast path; requires spec.shape.
  AdmissionDecision try_admit_interned(const GraphTaskSpec& spec, Time now);

  sim::Simulator& sim_;
  SyntheticUtilizationTracker& tracker_;
  std::optional<GraphRegionEvaluator> evaluator_;  // critical-path mode
  std::optional<LongPathEvaluator> long_path_;     // long-path mode
  std::vector<double> scratch_u_;  // reused utilization snapshot buffer
  // Reused sparse (stage, value) buffers for the interned commit; reserved
  // to num_stages() up front so the hot path never grows them.
  std::vector<std::uint32_t> commit_stages_;
  std::vector<double> commit_values_;
  std::uint64_t attempts_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t evaluations_ = 0;
  obs::DecisionSink* sink_ = nullptr;
};

// Sec. 5 waiting admission, written once for pipeline and DAG tasks: an
// arrival that does not fit immediately is parked for up to `patience`, and
// every utilization decrease retries the queue in FIFO order. The absolute
// deadline stays anchored at the original arrival, so waiting consumes the
// task's own slack. `Gate` says whether a decrease can change the front
// waiter's test at all; a decrease it rules out costs no evaluation.
template <class Controller, class Spec, class Gate>
class WaitingAdmission {
 public:
  // Decision callback: receives the full decision. decision.arrival is the
  // task's original arrival (its deadline stays anchored there) and
  // decision.decided_at the simulation instant of the decision (arrival +
  // waiting). A task that waits out its patience is reported with
  // reason == Reason::kTimedOut and the LHS pair of its last failed test.
  using DecisionCallback =
      std::function<void(const Spec&, const AdmissionDecision&)>;

  WaitingAdmission(sim::Simulator& sim, Controller& inner, Duration patience);

  // Call once; the controller hooks the tracker's decrease notifications.
  // Any previously installed on-decrease callback is replaced.
  void attach();

  void set_decision_callback(DecisionCallback cb) { decide_ = std::move(cb); }

  // Submits an arrival at the current time. May decide synchronously (fits
  // now, or patience == 0) or later.
  void submit(const Spec& spec);

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t timed_out() const { return timed_out_; }

  // Decrease notifications the gate short-circuited (no evaluation).
  [[nodiscard]] std::uint64_t gate_skips() const { return gate_skips_; }

  // Times a decrease arrived while a retry scan was already running and the
  // scan was re-armed to run again (observability for the cascade case).
  [[nodiscard]] std::uint64_t rearmed_retries() const {
    return rearmed_retries_;
  }

 private:
  struct Pending {
    Spec spec;
    Time arrival;
    AdmissionDecision last_test;  // most recent failed admission attempt
    sim::EventId timeout_event = sim::kInvalidEventId;
    Gate gate;
  };

  void on_decrease();
  void retry();
  void timeout(std::uint64_t task_id);
  void decide(const Pending& p, const AdmissionDecision& d);
  AdmissionDecision timed_out_decision(const Pending& p) const;

  sim::Simulator& sim_;
  Controller& inner_;
  Duration patience_;
  std::deque<Pending> queue_;
  DecisionCallback decide_;
  std::uint64_t timed_out_ = 0;
  std::uint64_t gate_skips_ = 0;
  bool retrying_ = false;
  bool rearm_ = false;  // decrease observed mid-retry: scan again
  std::uint64_t rearmed_retries_ = 0;
};

// Pipeline waiting retries on every decrease: the region LHS sums f(U_j)
// over every stage, so a decrease anywhere can change the front's test.
struct NoGate {
  void snapshot(const TaskSpec&, const SyntheticUtilizationTracker&) {}
  [[nodiscard]] bool changed(const SyntheticUtilizationTracker&) const {
    return true;
  }
};

// The headroom gate of DAG waiting: a parked task keeps the tracker's cached
// f-terms over the resources it touches, as of its last failed test, and a
// decrease re-runs its evaluation only when one of them changed. Both graph
// bounds read only the touched resources, and f is strictly increasing in
// U, so equal f-terms mean the failed test would repeat verbatim — the gate
// can never strand an admissible waiter.
class HeadroomGate {
 public:
  void snapshot(const GraphTaskSpec& spec,
                const SyntheticUtilizationTracker& tracker);
  [[nodiscard]] bool changed(const SyntheticUtilizationTracker& tracker) const;

 private:
  std::vector<std::uint32_t> touched_;  // resources, ascending
  std::vector<double> f_;               // f-terms at the last failed test
};

using WaitingAdmissionController =
    WaitingAdmission<AdmissionController, TaskSpec, NoGate>;
using WaitingGraphAdmissionController =
    WaitingAdmission<GraphAdmissionController, GraphTaskSpec, HeadroomGate>;

extern template class WaitingAdmission<AdmissionController, TaskSpec, NoGate>;
extern template class WaitingAdmission<GraphAdmissionController,
                                       GraphTaskSpec, HeadroomGate>;

}  // namespace frap::core
