// ingest_churn: one thread replays a pool of pre-encoded FRAP v1 records
// through ArrivalCursor::next -> IngestSession::assemble ->
// Simulator::run_until -> AdmissionController::try_admit on a 5-stage
// deadline-monotonic region. Offered load sits just above the balanced
// cap, so most arrivals commit and ~10k tasks stay live until their
// deadlines expire them: commit and timer expiry do most of the work.
#include <memory>

#include "checks.h"
#include "common.h"
#include "core/admission.h"
#include "core/feasible_region.h"
#include "core/synthetic_utilization.h"
#include "ingest/ingest_session.h"
#include "ingest/wire_decoder.h"
#include "ingest/wire_encoder.h"
#include "inputs.h"
#include "sim/simulator.h"

namespace frapbench {
namespace {

using namespace frap;

constexpr std::size_t kStages = 5;
constexpr std::size_t kPool = 65536;  // records per frame; one round
constexpr double kRate = 12000;       // arrivals per simulated second
constexpr double kOfferedOverCap = 1.15;
constexpr double kMeanTouched = 2.0;  // 1..3 stages, uniform

SparseConfig input_config() {
  SparseConfig c;
  c.stages = kStages;
  c.rate = kRate;
  c.mean_compute = kOfferedOverCap * kBalancedCap5 /
                   (kRate * kMeanTouched / static_cast<double>(kStages));
  return c;
}

struct Churn {
  std::vector<Arrival> in;  // the generated inputs, kept for the check
  std::vector<std::byte> frame;
  ingest::WireView view;
  double period = 0;  // simulated span of one round
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<core::SyntheticUtilizationTracker> tracker;
  std::unique_ptr<core::AdmissionController> ctl;
  std::unique_ptr<ingest::IngestSession> session;
  std::uint64_t rounds = 0;           // rounds replayed so far
  std::vector<std::uint8_t> admitted;  // decisions of the last round
  std::unique_ptr<RegionSweep> sweep;  // checks every decision of the run
  std::string error;
};

void setup(Churn& s, std::uint64_t seed) {
  s = Churn{};
  Rng rng(seed);
  s.in = sparse_arrivals(rng, input_config(), kPool);
  const auto& in = s.in;
  ingest::WireEncoder enc(kStages, 0.0);
  core::TaskSpec spec;
  spec.stages.resize(kStages);
  for (std::size_t k = 0; k < kPool; ++k) {
    fill_spec(spec, k + 1, in[k].deadline, in[k].demand);
    enc.add(in[k].offset, spec);
  }
  const auto bytes = enc.frame();
  s.frame.assign(bytes.begin(), bytes.end());
  // A record's next replay is one period later, after its deadline: ids
  // never collide with a live task of the previous round.
  s.period = in.back().offset + 1.0 / kRate;

  s.sim = std::make_unique<sim::Simulator>();
  s.tracker = std::make_unique<core::SyntheticUtilizationTracker>(*s.sim,
                                                                  kStages);
  s.ctl = std::make_unique<core::AdmissionController>(
      *s.sim, *s.tracker, core::FeasibleRegion::deadline_monotonic(kStages));
  s.session = std::make_unique<ingest::IngestSession>(kStages);
  s.admitted.resize(kPool);
  s.sweep = std::make_unique<RegionSweep>(kStages, 1.0);
  ingest::WireParse parse;
  s.view = ingest::WireView::open(s.frame, &parse);
  if (!s.view.valid()) {
    s.error = std::string("frame rejected: ") + ingest::wire_error_name(parse.error);
    return;
  }
  if (const auto p = s.session->check(s.view); !p.ok()) {
    s.error = std::string("frame rejected: ") + ingest::wire_error_name(p.error);
  }
}

// Replays the pool once, then checks the round's decisions (untimed).
// Returns the round's figures; `lat` receives one front-door latency per
// arrival (untraced rounds only).
template <bool kTraced>
RoundStats round(Churn& s, std::vector<std::int64_t>& lat, Tracer* tr,
                 double& admitted_work) {
  const double shift = static_cast<double>(s.rounds) * s.period;
  const std::uint64_t first = s.rounds * kPool;
  lat.clear();
  ingest::ArrivalCursor cur = s.view.cursor();
  ingest::WireArrival a;
  std::uint64_t k = 0;
  const std::int64_t t0 = now_ns();
  for (;;) {
    bool admitted = false;
    if constexpr (kTraced) {
      tr->begin(kArrival, first + k);
      tr->begin(kDecode, first + k);
      const bool more = cur.next(a);
      tr->end();
      if (!more) {
        tr->end();
        break;
      }
      tr->begin(kAssemble, first + k);
      const core::TaskSpec& spec = s.session->assemble(a);
      tr->end();
      const double t = a.arrival() + shift;
      tr->begin(kAdvance, first + k);
      s.sim->run_until(t);
      tr->end();
      tr->begin(kAdmit, first + k);
      admitted = s.ctl->try_admit(spec, t).admitted;
      tr->end(admitted ? kAdmit : kReject);
      tr->end();
    } else {
      if (!cur.next(a)) break;
      const core::TaskSpec& spec = s.session->assemble(a);
      const double t = a.arrival() + shift;
      const std::int64_t d0 = now_ns();
      s.sim->run_until(t);
      admitted = s.ctl->try_admit(spec, t).admitted;
      lat.push_back(now_ns() - d0);
    }
    s.admitted[k++] = admitted;
  }
  RoundStats r;
  r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  r.arrivals = static_cast<double>(k);
  for (std::size_t i = 0; i < kPool; ++i) {
    const Arrival& in = s.in[i];
    s.sweep->check(in.offset + shift, in.deadline, in.demand, s.admitted[i]);
    if (!s.admitted[i]) continue;
    for (std::size_t j = 0; j < in.demand.n; ++j)
      admitted_work += in.demand.compute[j];
  }
  if (!kTraced) {
    r.p50_ns = percentile(lat, 0.50);
    r.p99_ns = percentile(lat, 0.99);
  }
  ++s.rounds;
  return r;
}

}  // namespace

Result run_ingest_churn(const Options& o) {
  Result res;
  Churn s;
  std::vector<std::int64_t> lat;
  lat.reserve(kPool);
  double warm_work = 0;
  const double setup_s = timed_setups(kSetupRepeats, [&] {
    setup(s, o.seed);
    if (!s.error.empty()) return;
    round<false>(s, lat, nullptr, warm_work);  // fill to steady state
  });
  if (!s.error.empty()) {
    res.fail_check(s.error);
    return res;
  }

  Tracer tracer;
  std::vector<RoundStats> plain, traced;
  double admitted_work = 0;
  double live_sum = 0;
  std::uint64_t measured = 0;
  double rss = 0;
  const std::uint64_t events0 = s.sim->events_executed();
  const std::uint64_t admits0 = s.ctl->admitted(), attempts0 = s.ctl->attempts();
  const std::int64_t start = now_ns();
  for (;;) {
    if (!more_rounds(o, start, plain, traced)) break;
    if (o.trace && measured % 2 == 1) {
      traced.push_back(round<true>(s, lat, &tracer, admitted_work));
    } else {
      plain.push_back(round<false>(s, lat, nullptr, admitted_work));
    }
    live_sum += static_cast<double>(s.tracker->live_tasks());
    if (++measured == kRssRounds) rss = peak_rss_mb();
  }
  if (rss == 0) rss = peak_rss_mb();

  if (s.ctl->region().bound() != 1.0)
    res.fail_check("deadline-monotonic region bound is not 1");
  if (s.sweep->checked() != s.rounds * kPool)
    res.fail_check("not every decision was checked");
  if (s.sweep->violations() != 0)
    res.fail_check(std::to_string(s.sweep->violations()) +
                   " decisions disagree with the region sweep");
  res.attempted = s.rounds * kPool;

  const double span = static_cast<double>(measured) * s.period;
  if (!o.trace) {
    res.add("setup_s", setup_s, "s");
    add_round_metrics(res, plain);
    res.add("admitted_load", admitted_work / (span * kStages), "fraction");
    res.add("peak_rss_mb", rss, "MiB");
    return res;
  }
  add_layer_times(res, tracer,
                  {kDecode, kAssemble, kAdvance, kAdmit, kReject, kArrival});
  res.add("sim.events",
          static_cast<double>(s.sim->events_executed() - events0), "count");
  res.add("core.admits", static_cast<double>(s.ctl->admitted() - admits0),
          "count");
  res.add("core.rejects",
          static_cast<double>((s.ctl->attempts() - attempts0) -
                              (s.ctl->admitted() - admits0)),
          "count");
  res.add("core.live_tasks", live_sum / static_cast<double>(measured), "count");
  res.add("bench.trace_overhead_pct", trace_overhead_pct(plain, traced), "%");
  if (!o.trace_out.empty() && !write_spans(o.trace_out, tracer.spans()))
    res.fail_check("cannot write " + o.trace_out);
  return res;
}

}  // namespace frapbench
