// pipeline_sim: Poisson 5-stage pipeline tasks offered at twice the
// balanced cap of the region (~0.36 of each stage's capacity), so about
// half the decisions are rejects. Each arrival goes through
// AdmissionController::try_admit; admitted tasks run on a PipelineRuntime
// with deadline-monotonic priorities, and Simulator::run_until executes
// jobs between arrivals. frap's own obs::Observer is attached as an
// operator would run it: a decision sink on the controller, a stage
// observer on the runtime.
//
// Idle reset is off. With it on (and the load at twice stage capacity),
// admitted tasks missed their deadlines now and then: about 1.5 in a
// million arrivals on one host, none in over 100M on the host README.md
// describes, so the share of failed arrivals differed between runs of the
// same code.
#include <memory>

#include "checks.h"
#include "common.h"
#include "core/admission.h"
#include "core/feasible_region.h"
#include "core/synthetic_utilization.h"
#include "inputs.h"
#include "obs/observer.h"
#include "obs/prometheus.h"
#include "pipeline/pipeline_runtime.h"
#include "sim/simulator.h"

namespace frapbench {
namespace {

using namespace frap;

constexpr std::size_t kStages = 5;
constexpr std::size_t kPool = 65536;  // pre-drawn tasks, replayed in turn
constexpr std::size_t kRound = 8192;  // arrivals per round
// Rounds measured on one pipeline before it is drained and set up again.
// Each stage's utilization meter keeps every busy interval it has seen, and
// at this load nearly every job opens one: run for 10 s on one pipeline,
// the process grew to ~400 MiB. An epoch holds it near the size
// peak_rss_mb reads after kRssRounds (< kEpochRounds) rounds.
constexpr std::uint64_t kEpochRounds = 16;
static_assert(kRssRounds < kEpochRounds);
constexpr double kMeanCompute = 1e-3;  // per stage, seconds
const double kLoad = 2.0 * kBalancedCap5;  // offered / stage capacity
constexpr double kDeadlineMin = 0.25;
constexpr double kDeadlineMax = 0.75;

struct Pipe {
  // The pool, flat: interarrival gap, deadline and kStages demands per task.
  std::vector<double> gap, deadline, compute;
  std::size_t next = 0;  // pool index of the next arrival
  core::TaskSpec spec;   // scratch the next arrival is written into
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<core::SyntheticUtilizationTracker> tracker;
  std::unique_ptr<core::AdmissionController> ctl;
  std::unique_ptr<pipeline::PipelineRuntime> rt;
  std::unique_ptr<obs::Observer> observer;
  CompletionLedger ledger;
  double t = 0;              // last arrival instant
  std::uint64_t next_id = 1;
  std::uint64_t admits = 0;
  std::uint64_t rejects = 0;
};

void setup(Pipe& s, std::uint64_t seed) {
  s = Pipe{};
  Rng rng(seed);
  for (std::size_t k = 0; k < kPool; ++k) {
    s.gap.push_back(exponential(rng, kLoad / kMeanCompute));
    s.deadline.push_back(uniform(rng, kDeadlineMin, kDeadlineMax));
    for (std::size_t j = 0; j < kStages; ++j)
      s.compute.push_back(uniform(rng, 0.5, 1.5) * kMeanCompute);
  }
  s.spec.importance = 1.0;
  s.spec.stages.resize(kStages);
  s.ledger.reserve(kRound);
  s.sim = std::make_unique<sim::Simulator>();
  s.tracker =
      std::make_unique<core::SyntheticUtilizationTracker>(*s.sim, kStages);
  s.tracker->set_idle_reset_enabled(false);
  s.ctl = std::make_unique<core::AdmissionController>(
      *s.sim, *s.tracker, core::FeasibleRegion::deadline_monotonic(kStages));
  s.rt = std::make_unique<pipeline::PipelineRuntime>(*s.sim, kStages,
                                                     s.tracker.get());
  s.rt->set_priority_policy(pipeline::deadline_monotonic_policy());
  s.observer = std::make_unique<obs::Observer>(1, obs::SinkConfig{}, nullptr,
                                               kStages);
  s.ctl->set_sink(&s.observer->sink(0));
  s.rt->set_stage_observer(&s.observer->stage_observer());
  Pipe* self = &s;
  s.rt->set_on_task_complete([self](const core::TaskSpec& spec, Duration,
                                    bool) {
    self->ledger.completed(spec.id, self->sim->now());
  });
}

template <bool kTraced>
RoundStats round(Pipe& s, std::vector<std::int64_t>& lat, Tracer* tr,
                 double& admitted_work) {
  lat.clear();
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < kRound; ++i) {
    const std::size_t k = s.next;
    s.next = (k + 1) % kPool;
    s.t += s.gap[k];
    const std::uint64_t id = s.next_id++;
    core::TaskSpec& spec = s.spec;
    spec.id = id;
    spec.deadline = s.deadline[k];
    for (std::size_t j = 0; j < kStages; ++j)
      spec.stages[j].compute = s.compute[k * kStages + j];
    bool admitted = false;
    if constexpr (kTraced) {
      tr->begin(kArrival, id);
      tr->begin(kAdvance, id);
      s.sim->run_until(s.t);
      tr->end();
      tr->begin(kAdmit, id);
      admitted = s.ctl->try_admit(spec, s.t).admitted;
      tr->end(admitted ? kAdmit : kReject);
      if (admitted) {
        s.ledger.admitted(id, s.t, spec.deadline);
        tr->begin(kStart, id);
        s.rt->start_task(spec, s.t + spec.deadline);
        tr->end();
      }
      tr->end();
    } else {
      s.sim->run_until(s.t);
      const std::int64_t d0 = now_ns();
      admitted = s.ctl->try_admit(spec, s.t).admitted;
      lat.push_back(now_ns() - d0);
      if (admitted) {
        s.ledger.admitted(id, s.t, spec.deadline);
        s.rt->start_task(spec, s.t + spec.deadline);
      }
    }
    if (admitted) {
      ++s.admits;
      for (const auto& st : spec.stages) admitted_work += st.compute;
    } else {
      ++s.rejects;
    }
  }
  RoundStats r;
  r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  r.arrivals = static_cast<double>(kRound);
  if (!kTraced) {
    r.p50_ns = percentile(lat, 0.50);
    r.p99_ns = percentile(lat, 0.99);
  }
  return r;
}

// Figures of one epoch (a pipeline set up, measured, then drained), summed
// over the run's epochs.
struct Totals {
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t admits = 0, rejects = 0;  // measured rounds only
  std::uint64_t events = 0, preemptions = 0, completed = 0;
  std::uint64_t obs_pushed = 0, obs_lost = 0;
  double span = 0;       // simulated seconds of the measured rounds
  double busy_time = 0;  // Σ over stages of busy time in that span
};

// Where an epoch's measured rounds start.
struct Mark {
  double t = 0;
  std::uint64_t events = 0, admits = 0, rejects = 0, preemptions = 0;
};

std::uint64_t preemptions(const Pipe& s) {
  std::uint64_t n = 0;
  for (std::size_t j = 0; j < kStages; ++j) n += s.rt->stage(j).preemptions();
  return n;
}

Mark mark(const Pipe& s) {
  return {s.t, s.sim->events_executed(), s.admits, s.rejects, preemptions(s)};
}

// Closes the epoch begun at `m`: drains the simulator (every admitted task
// must complete), checks the epoch and adds it to `tot`. Returns its final
// obs snapshot.
obs::MetricsSnapshot close_epoch(Pipe& s, const Mark& m, Totals& tot,
                                 Result& res) {
  tot.admits += s.admits - m.admits;
  tot.rejects += s.rejects - m.rejects;
  tot.events += s.sim->events_executed() - m.events;
  tot.preemptions += preemptions(s) - m.preemptions;
  if (s.t > m.t) {
    std::vector<double> busy(kStages);
    s.rt->stage_utilizations(m.t, s.t, busy);
    for (double b : busy) tot.busy_time += b * (s.t - m.t);
    tot.span += s.t - m.t;
  }
  s.sim->run();

  const std::uint64_t attempted = s.admits + s.rejects;
  tot.attempted += attempted;
  tot.failed += s.ledger.late() + s.ledger.pending();
  tot.completed += s.rt->completed();
  if (s.ledger.unknown() != 0)
    res.fail_check(std::to_string(s.ledger.unknown()) +
                   " completions of tasks never admitted");
  if (auto why = compare_tallies(attempted, s.admits, s.rejects,
                                 s.ctl->admitted(),
                                 s.ctl->attempts() - s.ctl->admitted());
      !why.empty())
    res.fail_check("tallies: " + why);
  if (s.ledger.on_time() + s.ledger.late() != s.rt->completed())
    res.fail_check("runtime completion count differs from the ledger");
  obs::MetricsSnapshot snap = s.observer->snapshot();
  for (const auto& sink : snap.sinks) {
    tot.obs_pushed += sink.pushed;
    tot.obs_lost += sink.dropped + sink.overwritten;
  }
  return snap;
}

}  // namespace

Result run_pipeline_sim(const Options& o) {
  Result res;
  Pipe s;
  std::vector<std::int64_t> lat;
  lat.reserve(kRound);
  double warm_work = 0;
  const auto set_up = [&] {
    setup(s, o.seed);
    round<false>(s, lat, nullptr, warm_work);  // fill the pipeline
  };
  const double setup_s = timed_setups(kSetupRepeats, set_up);

  Tracer tracer;
  std::vector<RoundStats> plain, traced;
  Totals tot;
  double admitted_work = 0, live_sum = 0;
  std::uint64_t measured = 0;
  double rss = 0;
  Mark m = mark(s);
  const std::int64_t start = now_ns();
  for (;;) {
    if (!more_rounds(o, start, plain, traced)) break;
    if (measured > 0 && measured % kEpochRounds == 0) {
      close_epoch(s, m, tot, res);
      set_up();
      m = mark(s);
    }
    if (o.trace && measured % 2 == 1) {
      traced.push_back(round<true>(s, lat, &tracer, admitted_work));
    } else {
      plain.push_back(round<false>(s, lat, nullptr, admitted_work));
    }
    live_sum += static_cast<double>(s.tracker->live_tasks());
    if (++measured == kRssRounds) rss = peak_rss_mb();
  }
  if (rss == 0) rss = peak_rss_mb();
  const obs::MetricsSnapshot snap = close_epoch(s, m, tot, res);
  res.attempted = tot.attempted;
  res.failed = tot.failed;

  if (!o.trace) {
    res.add("setup_s", setup_s, "s");
    add_round_metrics(res, plain);
    res.add("admitted_load", admitted_work / (tot.span * kStages),
            "fraction");
    res.add("peak_rss_mb", rss, "MiB");
    return res;
  }
  add_layer_times(res, tracer, {kAdvance, kAdmit, kReject, kStart, kArrival});
  res.add("sim.events", static_cast<double>(tot.events), "count");
  res.add("core.admits", static_cast<double>(tot.admits), "count");
  res.add("core.rejects", static_cast<double>(tot.rejects), "count");
  res.add("core.live_tasks", live_sum / static_cast<double>(measured),
          "count");
  res.add("pipeline.completed", static_cast<double>(tot.completed), "count");
  res.add("sched.busy_frac", tot.busy_time / (tot.span * kStages),
          "fraction");
  res.add("sched.preemptions", static_cast<double>(tot.preemptions), "count",
          true);
  res.add("obs.events", static_cast<double>(tot.obs_pushed), "count");
  res.add("obs.dropped", static_cast<double>(tot.obs_lost), "count", true);
  std::vector<double> render;
  std::size_t bytes = 0;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t r0 = now_ns();
    bytes += obs::render_prometheus(snap).size();
    render.push_back(static_cast<double>(now_ns() - r0));
  }
  if (bytes == 0) res.fail_check("empty Prometheus page");
  res.add("obs.render_ns", median(render), "ns");
  res.add("bench.trace_overhead_pct", trace_overhead_pct(plain, traced), "%");
  if (!o.trace_out.empty() && !write_spans(o.trace_out, tracer.spans()))
    res.fail_check("cannot write " + o.trace_out);
  return res;
}

}  // namespace frapbench
