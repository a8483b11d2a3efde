// Test-side StageListener that forwards completion and idle notifications
// to optional callbacks, for tests that only want to record them.
#pragma once

#include <functional>

#include "sched/job.h"
#include "sched/stage_executor.h"

namespace frap::sched {

struct CallbackListener final : StageListener {
  void on_job_complete(StageExecutor& /*stage*/, Job& job) override {
    if (on_complete) on_complete(job);
  }
  void on_stage_idle(StageExecutor& /*stage*/) override {
    if (on_idle) on_idle();
  }

  std::function<void(Job&)> on_complete;
  std::function<void()> on_idle;
};

}  // namespace frap::sched
