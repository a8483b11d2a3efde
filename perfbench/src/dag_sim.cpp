// dag_sim: random layered and Erdős–Rényi DAG tasks drawn from a fixed pool
// of shapes. Each arrival goes through TaskGraphShapeRegistry::intern ->
// long-path GraphAdmissionController::try_admit -> DagRuntime::start_task,
// with the bound configured as frap's DAG soundness battery configures it
// (alpha = D_min / D_max, stage cap alpha) and idle reset on.
#include <algorithm>
#include <memory>

#include "checks.h"
#include "common.h"
#include "core/admission.h"
#include "core/long_path_bound.h"
#include "core/synthetic_utilization.h"
#include "core/task_graph.h"
#include "core/task_graph_shape.h"
#include "inputs.h"
#include "pipeline/dag_runtime.h"
#include "sim/simulator.h"

namespace frapbench {
namespace {

using namespace frap;

constexpr std::size_t kResources = 5;
constexpr std::size_t kShapes = 256;   // shape pool
constexpr std::size_t kPool = 16384;   // pre-drawn arrivals, replayed in turn
constexpr std::size_t kRound = 4096;   // arrivals per round
constexpr double kDeadlineMin = 0.5;
constexpr double kDeadlineMax = 2.0;
constexpr double kAlpha = kDeadlineMin / kDeadlineMax;
constexpr double kComputeMin = 4e-3;
constexpr double kComputeMax = 20e-3;
constexpr double kRate = 100;  // arrivals per simulated second (~1.6x load)

// Random DAG with 3..10 nodes on random resources: layered (every node
// past the first layer has a parent in the previous layer, plus extra
// forward edges) or Erdős–Rényi over a random topological order.
core::GraphTaskSpec random_graph(Rng& rng, bool layered) {
  core::GraphTaskSpec g;
  const auto n = static_cast<std::size_t>(
      std::uniform_int_distribution<int>(3, 10)(rng));
  std::uniform_int_distribution<std::size_t> res(0, kResources - 1);
  for (std::size_t v = 0; v < n; ++v) {
    core::GraphNode node;
    node.resource = res(rng);
    node.demand.compute = uniform(rng, kComputeMin, kComputeMax);
    g.nodes.push_back(std::move(node));
  }
  const auto edge = [&](std::size_t a, std::size_t b) {
    g.edges.push_back({a, b});
  };
  if (layered) {
    const std::size_t layers = std::min<std::size_t>(
        n, std::uniform_int_distribution<std::size_t>(2, 5)(rng));
    std::vector<std::size_t> start(layers + 1);
    for (std::size_t l = 0; l <= layers; ++l) start[l] = l * n / layers;
    for (std::size_t l = 1; l < layers; ++l) {
      for (std::size_t v = start[l]; v < start[l + 1]; ++v) {
        const std::size_t parent =
            std::uniform_int_distribution<std::size_t>(start[l - 1],
                                                       start[l] - 1)(rng);
        edge(parent, v);
        for (std::size_t u = 0; u < start[l - 1]; ++u)
          if (uniform(rng, 0, 1) < 0.25) edge(u, v);
      }
    }
  } else {
    for (std::size_t a = 0; a + 1 < n; ++a)
      for (std::size_t b = a + 1; b < n; ++b)
        if (uniform(rng, 0, 1) < 0.3) edge(a, b);
  }
  return g;
}

struct Arrive {
  double gap;
  double deadline;
  std::uint32_t shape;  // index into the shape pool
};

struct Dag {
  std::vector<core::GraphTaskSpec> shapes;  // canonical form
  std::vector<Arrive> arrivals;
  std::size_t next = 0;  // pool index of the next arrival
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<core::SyntheticUtilizationTracker> tracker;
  std::unique_ptr<core::TaskGraphShapeRegistry> registry;
  std::unique_ptr<core::GraphAdmissionController> ctl;
  std::unique_ptr<pipeline::DagRuntime> rt;
  CompletionLedger ledger;
  double t = 0;
  std::uint64_t next_id = 1;
  std::uint64_t admits = 0;
  std::uint64_t rejects = 0;
};

void setup(Dag& s, std::uint64_t seed) {
  s = Dag{};
  Rng rng(seed);
  s.ledger.reserve(kRound);
  s.sim = std::make_unique<sim::Simulator>();
  s.tracker =
      std::make_unique<core::SyntheticUtilizationTracker>(*s.sim, kResources);
  s.registry = std::make_unique<core::TaskGraphShapeRegistry>();
  for (std::size_t i = 0; i < kShapes; ++i) {
    s.shapes.push_back(s.registry->canonicalize(random_graph(rng, i % 2 == 0)));
  }
  for (std::size_t i = 0; i < kPool; ++i) {
    Arrive a;
    a.gap = exponential(rng, kRate);
    a.deadline = uniform(rng, kDeadlineMin, kDeadlineMax);
    a.shape = static_cast<std::uint32_t>(
        std::uniform_int_distribution<std::size_t>(0, kShapes - 1)(rng));
    s.arrivals.push_back(a);
  }
  s.ctl = std::make_unique<core::GraphAdmissionController>(
      *s.sim, *s.tracker,
      core::LongPathEvaluator(std::vector<double>(kResources, kDeadlineMax),
                              {}, kAlpha));
  s.rt = std::make_unique<pipeline::DagRuntime>(*s.sim, kResources,
                                                s.tracker.get());
  // Deadline-monotonic priorities, the runtime's default. Random fixed
  // priorities (as in frap's DAG soundness battery) are left out: with idle
  // reset on they let admitted tasks miss deadlines on some seeds, which
  // the benchmark would count as failed operations (see README.md).
  Dag* self = &s;
  s.rt->set_on_task_complete(
      [self](const core::GraphTaskSpec& g, Duration, bool) {
        self->ledger.completed(g.id, self->sim->now());
      });
}

template <bool kTraced>
RoundStats round(Dag& s, std::vector<std::int64_t>& lat, Tracer* tr,
                 double& admitted_work) {
  lat.clear();
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < kRound; ++i) {
    const Arrive& a = s.arrivals[s.next];
    s.next = (s.next + 1) % kPool;
    s.t += a.gap;
    const std::uint64_t id = s.next_id++;
    core::GraphTaskSpec& spec = s.shapes[a.shape];
    spec.id = id;
    spec.deadline = a.deadline;
    bool admitted = false;
    if constexpr (kTraced) {
      tr->begin(kArrival, id);
      tr->begin(kAdvance, id);
      s.sim->run_until(s.t);
      tr->end();
      tr->begin(kIntern, id);
      spec.shape = s.registry->intern(spec);
      tr->end();
      tr->begin(kGraphAdmit, id);
      admitted = s.ctl->try_admit(spec, s.t).admitted;
      tr->end(admitted ? kGraphAdmit : kGraphReject);
      if (admitted) {
        s.ledger.admitted(id, s.t, spec.deadline);
        tr->begin(kStart, id);
        s.rt->start_task(spec, s.t + spec.deadline);
        tr->end();
      }
      tr->end();
    } else {
      s.sim->run_until(s.t);
      spec.shape = s.registry->intern(spec);
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
      for (const auto& node : spec.nodes) admitted_work += node.demand.compute;
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

}  // namespace

Result run_dag_sim(const Options& o) {
  Result res;
  Dag s;
  std::vector<std::int64_t> lat;
  lat.reserve(kRound);
  double warm_work = 0;
  const double setup_s = timed_setups(kSetupRepeats, [&] {
    setup(s, o.seed);
    round<false>(s, lat, nullptr, warm_work);  // fill the resources
  });

  Tracer tracer;
  std::vector<RoundStats> plain, traced;
  double admitted_work = 0;
  std::uint64_t measured = 0;
  double rss = 0;
  const double t_from = s.t;
  const std::uint64_t events0 = s.sim->events_executed();
  const std::uint64_t admits0 = s.admits, rejects0 = s.rejects;
  std::uint64_t preempt0 = 0;
  for (std::size_t k = 0; k < kResources; ++k)
    preempt0 += s.rt->resource(k).preemptions();
  const std::int64_t start = now_ns();
  for (;;) {
    if (!more_rounds(o, start, plain, traced)) break;
    if (o.trace && measured % 2 == 1) {
      traced.push_back(round<true>(s, lat, &tracer, admitted_work));
    } else {
      plain.push_back(round<false>(s, lat, nullptr, admitted_work));
    }
    if (++measured == kRssRounds) rss = peak_rss_mb();
  }
  const double t_to = s.t;
  const std::uint64_t events = s.sim->events_executed() - events0;
  std::uint64_t preemptions = 0;
  for (std::size_t k = 0; k < kResources; ++k)
    preemptions += s.rt->resource(k).preemptions();
  if (rss == 0) rss = peak_rss_mb();
  s.sim->run();  // drain: every admitted task must complete

  res.attempted = s.admits + s.rejects;
  res.failed = s.ledger.late() + s.ledger.pending();
  if (s.ledger.unknown() != 0)
    res.fail_check(std::to_string(s.ledger.unknown()) +
                   " completions of tasks never admitted");
  if (auto why = compare_tallies(res.attempted, s.admits, s.rejects,
                                 s.ctl->admitted(),
                                 s.ctl->attempts() - s.ctl->admitted());
      !why.empty())
    res.fail_check("tallies: " + why);
  if (s.ledger.on_time() + s.ledger.late() != s.rt->completed())
    res.fail_check("runtime completion count differs from the ledger");
  if (s.registry->size() != kShapes)
    res.fail_check("registry holds " + std::to_string(s.registry->size()) +
                   " shapes for a pool of " + std::to_string(kShapes));

  const double span = t_to - t_from;
  if (!o.trace) {
    res.add("setup_s", setup_s, "s");
    add_round_metrics(res, plain);
    res.add("admitted_load", admitted_work / (span * kResources), "fraction");
    res.add("peak_rss_mb", rss, "MiB");
    return res;
  }
  add_layer_times(res, tracer,
                  {kAdvance, kIntern, kGraphAdmit, kGraphReject, kStart,
                   kArrival});
  res.add("sim.events", static_cast<double>(events), "count");
  res.add("core.admits", static_cast<double>(s.admits - admits0), "count");
  res.add("core.rejects", static_cast<double>(s.rejects - rejects0), "count");
  res.add("core.shapes", static_cast<double>(s.registry->size()), "count");
  res.add("pipeline.completed", static_cast<double>(s.rt->completed()),
          "count");
  std::vector<double> busy(kResources);
  s.rt->resource_utilizations(t_from, t_to, busy);
  double busy_sum = 0;
  for (double b : busy) busy_sum += b;
  res.add("sched.busy_frac", busy_sum / kResources, "fraction");
  res.add("sched.preemptions", static_cast<double>(preemptions - preempt0),
          "count", true);
  res.add("bench.trace_overhead_pct", trace_overhead_pct(plain, traced), "%");
  if (!o.trace_out.empty() && !write_spans(o.trace_out, tracer.spans()))
    res.fail_check("cannot write " + o.trace_out);
  return res;
}

}  // namespace frapbench
