#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/task.h"
#include "core/task_graph.h"
#include "pipeline/dag_runtime.h"
#include "pipeline/pipeline_runtime.h"
#include "pipeline/trace.h"
#include "sim/simulator.h"

namespace frap::pipeline {
namespace {

TEST(TraceLogTest, RecordsInOrder) {
  TraceLog log;
  log.record(1.0, TraceEventKind::kArrival, 7);
  log.record(2.0, TraceEventKind::kAdmit, 7);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].kind, TraceEventKind::kArrival);
  EXPECT_EQ(log[1].kind, TraceEventKind::kAdmit);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(TraceLogTest, RingModeDropsOldest) {
  TraceLog log(3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    log.record(static_cast<Time>(i), TraceEventKind::kArrival, i);
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 2u);
  // The survivors are tasks 2, 3, 4 — check via per-task query.
  EXPECT_TRUE(log.for_task(0).empty());
  EXPECT_TRUE(log.for_task(1).empty());
  EXPECT_EQ(log.for_task(2).size(), 1u);
  EXPECT_EQ(log.for_task(4).size(), 1u);
}

TEST(TraceLogTest, ForTaskFiltersAndPreservesOrder) {
  TraceLog log;
  log.record(1.0, TraceEventKind::kRelease, 1);
  log.record(2.0, TraceEventKind::kRelease, 2);
  log.record(3.0, TraceEventKind::kStageDeparture, 1, 0);
  log.record(4.0, TraceEventKind::kComplete, 1, 0);
  const auto events = log.for_task(1);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kRelease);
  EXPECT_EQ(events[1].kind, TraceEventKind::kStageDeparture);
  EXPECT_EQ(events[2].kind, TraceEventKind::kComplete);
}

TEST(TraceLogTest, CountByKind) {
  TraceLog log;
  log.record(1.0, TraceEventKind::kAdmit, 1);
  log.record(2.0, TraceEventKind::kAdmit, 2);
  log.record(3.0, TraceEventKind::kReject, 3);
  EXPECT_EQ(log.count(TraceEventKind::kAdmit), 2u);
  EXPECT_EQ(log.count(TraceEventKind::kReject), 1u);
  EXPECT_EQ(log.count(TraceEventKind::kShed), 0u);
}

TEST(TraceLogTest, DumpIsTabSeparated) {
  TraceLog log;
  log.record(1.5, TraceEventKind::kComplete, 9, 1);
  std::ostringstream os;
  log.dump(os);
  EXPECT_EQ(os.str(), "1.5\tcomplete\t9\t1\n");
}

TEST(TraceLogTest, ClearResets) {
  TraceLog log(2);
  log.record(1.0, TraceEventKind::kArrival, 1);
  log.record(2.0, TraceEventKind::kArrival, 2);
  log.record(3.0, TraceEventKind::kArrival, 3);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(TraceLogTest, ToStringCoversAllKinds) {
  EXPECT_STREQ(to_string(TraceEventKind::kArrival), "arrival");
  EXPECT_STREQ(to_string(TraceEventKind::kAdmit), "admit");
  EXPECT_STREQ(to_string(TraceEventKind::kReject), "reject");
  EXPECT_STREQ(to_string(TraceEventKind::kRelease), "release");
  EXPECT_STREQ(to_string(TraceEventKind::kStageDeparture),
               "stage_departure");
  EXPECT_STREQ(to_string(TraceEventKind::kComplete), "complete");
  EXPECT_STREQ(to_string(TraceEventKind::kShed), "shed");
}

TEST(TraceRuntimeTest, RuntimeEmitsLifecycleEvents) {
  sim::Simulator sim;
  PipelineRuntime runtime(sim, 2, nullptr);
  TraceLog log;
  runtime.set_trace(&log);

  core::TaskSpec spec;
  spec.id = 42;
  spec.deadline = 10.0;
  spec.stages.resize(2);
  spec.stages[0].compute = 1.0;
  spec.stages[1].compute = 2.0;
  sim.at(0.0, [&] { runtime.start_task(spec, 10.0); });
  sim.run();

  const auto events = log.for_task(42);
  ASSERT_EQ(events.size(), 4u);  // release, 2 departures, complete
  EXPECT_EQ(events[0].kind, TraceEventKind::kRelease);
  EXPECT_DOUBLE_EQ(events[0].time, 0.0);
  EXPECT_EQ(events[1].kind, TraceEventKind::kStageDeparture);
  EXPECT_DOUBLE_EQ(events[1].time, 1.0);
  EXPECT_EQ(events[1].detail, 0u);
  EXPECT_EQ(events[2].kind, TraceEventKind::kStageDeparture);
  EXPECT_DOUBLE_EQ(events[2].time, 3.0);
  EXPECT_EQ(events[3].kind, TraceEventKind::kComplete);
  EXPECT_EQ(events[3].detail, 0u);  // no miss
}

TEST(TraceRuntimeTest, MissAndShedAreRecorded) {
  sim::Simulator sim;
  PipelineRuntime runtime(sim, 1, nullptr);
  TraceLog log;
  runtime.set_trace(&log);

  core::TaskSpec late;
  late.id = 1;
  late.deadline = 0.5;
  late.stages.resize(1);
  late.stages[0].compute = 1.0;
  core::TaskSpec doomed = late;
  doomed.id = 2;
  doomed.deadline = 10.0;

  sim.at(0.0, [&] {
    runtime.start_task(late, 0.5);
    runtime.start_task(doomed, 10.0);
  });
  sim.at(0.2, [&] { runtime.abort_task(2); });
  sim.run();

  EXPECT_EQ(log.count(TraceEventKind::kShed), 1u);
  const auto done = log.for_task(1);
  EXPECT_EQ(done.back().kind, TraceEventKind::kComplete);
  EXPECT_EQ(done.back().detail, 1u);  // missed
}

TEST(TraceRuntimeTest, DagAbortRecordsShed) {
  sim::Simulator sim;
  DagRuntime runtime(sim, 2, nullptr);
  TraceLog log;
  runtime.set_trace(&log);

  core::GraphTaskSpec spec;
  spec.id = 7;
  spec.deadline = 10.0;
  spec.nodes.resize(2);
  spec.nodes[0].resource = 0;
  spec.nodes[0].demand.compute = 1.0;
  spec.nodes[1].resource = 1;
  spec.nodes[1].demand.compute = 1.0;
  spec.edges.push_back({0, 1});

  sim.at(0.0, [&] { runtime.start_task(spec, 10.0); });
  sim.at(0.5, [&] {
    ASSERT_TRUE(runtime.task_started_executing(7));
    runtime.abort_task(7);
  });
  sim.run();

  EXPECT_EQ(log.count(TraceEventKind::kShed), 1u);
  const auto events = log.for_task(7);
  ASSERT_EQ(events.size(), 2u);  // release, shed
  EXPECT_EQ(events[1].kind, TraceEventKind::kShed);
  EXPECT_DOUBLE_EQ(events[1].time, 0.5);
  EXPECT_EQ(runtime.aborted(), 1u);
}

}  // namespace
}  // namespace frap::pipeline
