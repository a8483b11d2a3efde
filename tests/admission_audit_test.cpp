#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "core/admission.h"
#include "core/admission_audit.h"
#include "core/feasible_region.h"
#include "core/synthetic_utilization.h"
#include "sim/simulator.h"

namespace frap::core {
namespace {

TaskSpec make_task(std::uint64_t id, Duration deadline,
                   std::vector<Duration> computes) {
  TaskSpec spec;
  spec.id = id;
  spec.deadline = deadline;
  for (Duration c : computes) {
    StageDemand d;
    d.compute = c;
    spec.stages.push_back(d);
  }
  return spec;
}

TEST(AdmissionAuditTest, RecordsDecisionsInOrder) {
  AdmissionAudit audit;
  audit.record(AuditRecord{1.0, 10, true, 0.0, 0.2, 1.0});
  audit.record(AuditRecord{2.0, 11, false, 0.2, 1.4, 1.0});
  ASSERT_EQ(audit.size(), 2u);
  EXPECT_EQ(audit[0].task_id, 10u);
  EXPECT_TRUE(audit[0].admitted);
  EXPECT_EQ(audit[1].task_id, 11u);
  EXPECT_FALSE(audit[1].admitted);
  EXPECT_DOUBLE_EQ(audit.acceptance().ratio(), 0.5);
}

TEST(AdmissionAuditTest, RemainingMarginSemantics) {
  // Admitted: margin measured including the task.
  const AuditRecord a{0, 1, true, 0.1, 0.4, 1.0};
  EXPECT_DOUBLE_EQ(a.remaining_margin(), 0.6);
  // Rejected: the task did not enter, so the state keeps lhs_before.
  const AuditRecord r{0, 2, false, 0.1, 1.5, 1.0};
  EXPECT_DOUBLE_EQ(r.remaining_margin(), 0.9);
}

TEST(AdmissionAuditTest, RingModeKeepsNewest) {
  AdmissionAudit audit(2);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    audit.record(AuditRecord{static_cast<Time>(i), i, true, 0, 0, 1.0});
  }
  EXPECT_EQ(audit.size(), 2u);
  EXPECT_EQ(audit.dropped(), 3u);
  EXPECT_EQ(audit[0].task_id, 4u);
  EXPECT_EQ(audit[1].task_id, 5u);
  // Summaries still cover everything.
  EXPECT_EQ(audit.acceptance().total(), 5u);
}

TEST(AdmissionAuditTest, SummariesSplitByVerdict) {
  AdmissionAudit audit;
  audit.record(AuditRecord{0, 1, true, 0.0, 0.3, 1.0});   // margin 0.7
  audit.record(AuditRecord{0, 2, true, 0.3, 0.5, 1.0});   // margin 0.5
  audit.record(AuditRecord{0, 3, false, 0.5, 1.2, 1.0});  // lhs 1.2
  EXPECT_EQ(audit.admitted_margin().count(), 2u);
  EXPECT_DOUBLE_EQ(audit.admitted_margin().mean(), 0.6);
  EXPECT_EQ(audit.rejected_lhs().count(), 1u);
  EXPECT_DOUBLE_EQ(audit.rejected_lhs().mean(), 1.2);
}

TEST(AdmissionAuditTest, InfiniteLhsRejectionsExcludedFromStats) {
  AdmissionAudit audit;
  audit.record(AuditRecord{0, 1, false, 0.0,
                           std::numeric_limits<double>::infinity(), 1.0});
  EXPECT_EQ(audit.rejected_lhs().count(), 0u);
  EXPECT_EQ(audit.acceptance().total(), 1u);
}

TEST(AdmissionAuditTest, DumpFormat) {
  AdmissionAudit audit;
  audit.record(AuditRecord{1.5, 7, true, 0.1, 0.2, 1.0});
  std::ostringstream os;
  audit.dump(os);
  EXPECT_EQ(os.str(), "1.5\t7\tadmit\t0.1\t0.2\t1\n");
}

TEST(AdmissionAuditTest, ControllerFeedsAudit) {
  sim::Simulator sim;
  SyntheticUtilizationTracker tracker(sim, 2);
  AdmissionController controller(sim, tracker,
                                 FeasibleRegion::deadline_monotonic(2));
  AdmissionAudit audit;
  controller.set_audit(&audit);

  (void)controller.try_admit(make_task(1, 1.0, {0.1, 0.1}), sim.now());  // in
  (void)controller.try_admit(make_task(2, 1.0, {0.6, 0.6}), sim.now());  // out
  ASSERT_EQ(audit.size(), 2u);
  EXPECT_TRUE(audit[0].admitted);
  EXPECT_EQ(audit[0].task_id, 1u);
  EXPECT_FALSE(audit[1].admitted);
  EXPECT_DOUBLE_EQ(audit[1].bound, 1.0);
  EXPECT_GT(audit[1].lhs_with_task, 1.0);
  EXPECT_DOUBLE_EQ(audit.acceptance().ratio(), 0.5);
}

}  // namespace
}  // namespace frap::core
