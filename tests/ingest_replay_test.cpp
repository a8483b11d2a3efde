// Differential: the wire path (encode -> decode -> replay) must produce
// BIT-IDENTICAL admission decisions to the in-process run it captured —
// verdicts, reasons, and every double in the decision record — over >= 10k
// randomized arrivals (the ISSUE 10 acceptance bar). Also covers the
// sharded service, burst admission, class-table vs inline equivalence, and
// rebased replay.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "core/admission.h"
#include "core/admission_decision.h"
#include "core/feasible_region.h"
#include "core/synthetic_utilization.h"
#include "core/task.h"
#include "ingest/ingest_session.h"
#include "ingest/trace_codec.h"
#include "ingest/wire_decoder.h"
#include "ingest/wire_encoder.h"
#include "service/sharded_admission.h"
#include "sim/simulator.h"
#include "workload/pipeline_workload.h"
#include "workload/replay.h"

namespace {

using namespace frap;
using core::AdmissionDecision;

bool bit_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_identical(const AdmissionDecision& a, const AdmissionDecision& b,
                      std::size_t i) {
  EXPECT_EQ(a.admitted, b.admitted) << i;
  EXPECT_EQ(a.reason, b.reason) << i;
  EXPECT_TRUE(bit_equal(a.lhs_before, b.lhs_before)) << i;
  EXPECT_TRUE(bit_equal(a.lhs_with_task, b.lhs_with_task)) << i;
  EXPECT_TRUE(bit_equal(a.bound, b.bound)) << i;
  EXPECT_TRUE(bit_equal(a.arrival, b.arrival)) << i;
  EXPECT_TRUE(bit_equal(a.decided_at, b.decided_at)) << i;
}

// A load high enough that the region saturates and a healthy share of
// arrivals reject: the differential exercises both verdicts and the full
// range of LHS values near the boundary.
workload::ArrivalTrace saturating_trace(std::size_t count,
                                        std::uint64_t seed) {
  auto cfg = workload::PipelineWorkloadConfig::balanced(
      /*stages=*/3, /*mean_compute_per_stage=*/10e-3, /*input_load=*/0.9,
      /*resolution=*/50.0);
  workload::PipelineWorkloadGenerator gen(cfg, seed);
  return workload::capture_poisson(gen, count);
}

struct ControllerRig {
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker;
  core::AdmissionController controller;

  explicit ControllerRig(std::size_t stages)
      : tracker(sim, stages),
        controller(sim, tracker,
                   core::FeasibleRegion::deadline_monotonic(stages)) {}
};

std::vector<AdmissionDecision> run_in_process(
    const workload::ArrivalTrace& trace) {
  ControllerRig rig(trace.num_stages());
  std::vector<AdmissionDecision> out;
  out.reserve(trace.size());
  for (const auto& r : trace.records()) {
    rig.sim.run_until(r.time);
    out.push_back(rig.controller.try_admit(r.task, r.time));
  }
  return out;
}

TEST(IngestReplay, TenThousandArrivalsBitIdenticalToInProcess) {
  const auto trace = saturating_trace(10000, 20260808);
  const auto expected = run_in_process(trace);

  ingest::WireEncoder enc(trace.num_stages());
  const auto frame = ingest::encode_trace(trace, enc);
  const auto view = ingest::WireView::open(frame);
  ASSERT_TRUE(view.valid());

  ControllerRig rig(trace.num_stages());
  ingest::IngestSession session(trace.num_stages());
  std::vector<AdmissionDecision> actual;
  const auto st =
      session.replay(view, rig.controller, rig.sim, &actual);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.records, trace.size());
  EXPECT_GT(st.admitted, 0u);
  EXPECT_GT(st.rejected, 0u);  // the saturating load must exercise rejects

  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    expect_identical(expected[i], actual[i], i);
}

TEST(IngestReplay, FileRoundTripPreservesDecisions) {
  const auto trace = saturating_trace(2000, 7);
  const auto expected = run_in_process(trace);

  ingest::WireEncoder enc(trace.num_stages());
  std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(ingest::write_frame(file, ingest::encode_trace(trace, enc)));
  std::vector<std::byte> bytes;
  ASSERT_TRUE(ingest::read_frame(file, &bytes));

  const auto view = ingest::WireView::open(bytes);
  ASSERT_TRUE(view.valid());
  ControllerRig rig(trace.num_stages());
  ingest::IngestSession session(trace.num_stages());
  std::vector<AdmissionDecision> actual;
  ASSERT_TRUE(session.replay(view, rig.controller, rig.sim, &actual).ok());
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    expect_identical(expected[i], actual[i], i);
}

TEST(IngestReplay, ShardedServiceBitIdenticalToInProcess) {
  const auto trace = saturating_trace(3000, 99);
  const auto make_svc = [&] {
    return std::make_unique<service::ShardedAdmissionService>(
        core::FeasibleRegion::deadline_monotonic(trace.num_stages()),
        service::ShardedAdmissionConfig{.num_shards = 4});
  };

  auto svc_a = make_svc();
  std::vector<AdmissionDecision> expected;
  for (const auto& r : trace.records())
    expected.push_back(svc_a->try_admit(r.task, r.time));

  ingest::WireEncoder enc(trace.num_stages());
  const auto view = ingest::WireView::open(ingest::encode_trace(trace, enc));
  ASSERT_TRUE(view.valid());
  auto svc_b = make_svc();
  ingest::IngestSession session(trace.num_stages());
  std::vector<AdmissionDecision> actual;
  const auto st = session.admit(view, *svc_b, &actual);
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    expect_identical(expected[i], actual[i], i);
}

TEST(IngestReplay, BurstAdmissionMatchesInProcessBurst) {
  const auto trace = saturating_trace(1000, 3);

  // In-process burst over materialized specs.
  ControllerRig rig_a(trace.num_stages());
  std::vector<AdmissionDecision> expected;
  for (const auto& r : trace.records())
    expected.push_back(
        rig_a.controller.try_admit(r.task, rig_a.controller.now()));

  // Wire burst.
  ingest::WireEncoder enc(trace.num_stages());
  const auto view = ingest::WireView::open(ingest::encode_trace(trace, enc));
  ASSERT_TRUE(view.valid());
  ControllerRig rig_b(trace.num_stages());
  ingest::IngestSession session(trace.num_stages());
  std::vector<AdmissionDecision> actual;
  const auto st = session.admit_burst(view, rig_b.controller, &actual);
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    expect_identical(expected[i], actual[i], i);
}

TEST(IngestReplay, ClassRecordsDecideIdenticallyToInlineRecords) {
  // One shared demand template, ids/deadlines/importances varying: the
  // class-record frame must admit exactly like the inline frame.
  constexpr std::size_t kStages = 4;
  std::vector<core::StageDemand> stages(kStages);
  stages[0].compute = 8e-3;
  stages[2].compute = 4e-3;

  ingest::TaskClassTable table;
  const std::uint16_t cls = table.add(stages);

  ingest::WireEncoder inline_enc(kStages);
  ingest::WireEncoder class_enc(kStages);
  core::TaskSpec spec;
  spec.stages = stages;
  Time t = 0;
  for (std::uint64_t i = 1; i <= 500; ++i) {
    t += 1e-3;
    spec.id = i;
    spec.deadline = 0.2 + 1e-4 * static_cast<double>(i % 7);
    spec.importance = static_cast<double>(i % 5);
    inline_enc.add(t, spec);
    class_enc.add_class(t, spec.id, spec.deadline, spec.importance, cls);
  }

  const auto run = [&](ingest::WireEncoder& enc, ingest::IngestSession& s) {
    const auto view = ingest::WireView::open(enc.frame());
    EXPECT_TRUE(view.valid());
    ControllerRig rig(kStages);
    std::vector<AdmissionDecision> out;
    EXPECT_TRUE(s.replay(view, rig.controller, rig.sim, &out).ok());
    return out;
  };
  ingest::IngestSession inline_session(kStages);
  ingest::IngestSession class_session(kStages, table);
  const auto expected = run(inline_enc, inline_session);
  const auto actual = run(class_enc, class_session);
  ASSERT_EQ(actual.size(), expected.size());
  ASSERT_FALSE(actual.empty());
  for (std::size_t i = 0; i < expected.size(); ++i)
    expect_identical(expected[i], actual[i], i);
}

TEST(IngestReplay, RebaseShiftsArrivalsButNotVerdicts) {
  const auto trace = saturating_trace(1000, 55);
  ingest::WireEncoder enc(trace.num_stages());
  const auto view = ingest::WireView::open(ingest::encode_trace(trace, enc));
  ASSERT_TRUE(view.valid());

  ControllerRig rig_a(trace.num_stages());
  ingest::IngestSession session_a(trace.num_stages());
  std::vector<AdmissionDecision> plain;
  ASSERT_TRUE(
      session_a.replay(view, rig_a.controller, rig_a.sim, &plain).ok());

  const Time epoch = 1000.0;
  ControllerRig rig_b(trace.num_stages());
  ingest::IngestSession session_b(trace.num_stages());
  std::vector<AdmissionDecision> rebased;
  ASSERT_TRUE(
      session_b.replay(view, rig_b.controller, rig_b.sim, &rebased, epoch)
          .ok());

  ASSERT_EQ(rebased.size(), plain.size());
  const Duration shift = epoch - view.base_time();
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(rebased[i].admitted, plain[i].admitted) << i;
    EXPECT_EQ(rebased[i].reason, plain[i].reason) << i;
    EXPECT_DOUBLE_EQ(rebased[i].arrival, plain[i].arrival + shift) << i;
  }
}

TEST(IngestReplay, MismatchedFrameIsRejectedWholeWithTypedError) {
  const auto trace = saturating_trace(50, 1);
  ingest::WireEncoder enc(trace.num_stages());
  const auto view = ingest::WireView::open(ingest::encode_trace(trace, enc));
  ASSERT_TRUE(view.valid());

  ControllerRig rig(trace.num_stages() + 1);
  ingest::IngestSession session(trace.num_stages() + 1);  // wrong width
  std::vector<AdmissionDecision> out;
  const auto st = session.replay(view, rig.controller, rig.sim, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.error, ingest::WireError::kStageMismatch);
  EXPECT_EQ(st.records, 0u);  // nothing reached the controller
  EXPECT_TRUE(out.empty());
}

}  // namespace
