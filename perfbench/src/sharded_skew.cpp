// sharded_skew: lanes, one thread each (lane 0 is the main thread; one
// lane is run, see kMaxLanes), decode their own pre-encoded frames into
// one ShardedAdmissionService in its default configuration with 8 shards.
// Half of all arrivals are homed on shard 0 and the offered load is twice
// the balanced cap, so shard dispatch, the CAS admit leg and the
// global-lock fallback with quota stealing do the work; rebalance runs on
// its default cadence.
//
// Lanes replay their frames in rounds and meet at a barrier every
// kSyncEvery records, which keeps their simulated clocks interleaved (a
// lane running ahead would push the shard clocks, and so the expiry of
// every lane's tasks, forward). Each lane alternates two frames with
// disjoint task ids, so an id comes back only after its previous instance
// has expired on its shard.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <memory>
#include <thread>

#include "checks.h"
#include "common.h"
#include "core/feasible_region.h"
#include "ingest/ingest_session.h"
#include "ingest/wire_decoder.h"
#include "ingest/wire_encoder.h"
#include "inputs.h"
#include "service/sharded_admission.h"

namespace frapbench {
namespace {

using namespace frap;
using core::AdmissionDecision;

constexpr std::size_t kStages = 5;
constexpr std::size_t kShards = 8;
// One lane: with two, the second lane mostly queued on the global
// fallback lock (arrivals/s fell from ~65k to ~38k, p99 rose from ~38 us to
// ~350 us), and throughput and p99 swung by more than their bounds from
// run to run on a shared 4-core host; with four, more so.
constexpr std::size_t kMaxLanes = 1;
constexpr std::size_t kLanePool = 2048;  // records per frame
constexpr double kLaneRate = 1000;       // arrivals per simulated second
// Summed over lanes. At 2x the cap the 1% tail lies inside the costly
// fallback mode; near 1.2x the p99 sat on the knee between the cheap and
// the costly fallbacks and moved by a third from run to run.
constexpr double kOfferedOverCap = 2.0;
constexpr double kMeanTouched = 2.0;
constexpr double kHotShare = 0.5;  // arrivals homed on shard 0
constexpr std::size_t kSyncEvery = 64;  // records between lane barriers
static_assert(kLanePool % kSyncEvery == 0);

std::size_t lane_count() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(kMaxLanes, hw);
}

SparseConfig input_config(std::size_t lanes) {
  SparseConfig c;
  c.stages = kStages;
  c.rate = kLaneRate;
  c.mean_compute =
      kOfferedOverCap * kBalancedCap5 /
      (static_cast<double>(lanes) * kLaneRate * kMeanTouched /
       static_cast<double>(kStages));
  return c;
}

// Inputs of one lane's frame `pool` (0 or 1), and the home shard of each
// record, drawn from the run seed.
struct LaneInput {
  std::vector<Arrival> arrivals;
  std::vector<std::uint64_t> ids;
};

LaneInput lane_input(std::uint64_t seed, std::size_t lanes, std::size_t lane,
                     std::size_t pool) {
  Rng rng(seed * 1000003ull + lane * 2 + pool);
  LaneInput in;
  in.arrivals = sparse_arrivals(rng, input_config(lanes), kLanePool);
  std::uniform_int_distribution<std::uint64_t> cold(1, kShards - 1);
  for (std::size_t k = 0; k < kLanePool; ++k) {
    const std::uint64_t home = uniform(rng, 0, 1) < kHotShare ? 0 : cold(rng);
    const std::uint64_t unique = (lane * 2 + pool) * kLanePool + k + 1;
    in.ids.push_back(unique * kShards + home);
  }
  return in;
}

// An admitted arrival, as the ledger keeps it until it has surely expired.
struct AdmittedRef {
  double decided_at;
  double deadline;
  std::uint32_t index;
};

struct Lane {
  std::array<std::vector<std::byte>, 2> frame;
  std::array<ingest::WireView, 2> view;
  std::array<std::vector<double>, 2> work;  // Σ_j C_ij per record
  std::unique_ptr<ingest::IngestSession> session;
  std::vector<std::int64_t> lat;
  Tracer tracer;
  // Admitted arrivals of the last three rounds, by round % 3.
  std::array<std::vector<AdmittedRef>, 3> recent;
  std::uint64_t admits = 0;
  std::uint64_t rejects = 0;
  double admitted_work = 0;  // of the current round
  double last_t = 0;         // last instant presented
  std::string error;
};

struct Skew {
  std::size_t lanes = 0;
  double period = 0;  // simulated span of one round
  std::unique_ptr<service::ShardedAdmissionService> svc;
  std::vector<std::unique_ptr<Lane>> lane;
  std::uint64_t rounds = 0;
};

void setup(Skew& s, std::uint64_t seed) {
  s = Skew{};
  s.lanes = lane_count();
  service::ShardedAdmissionConfig cfg;
  cfg.num_shards = kShards;  // every other field at its default
  s.svc = std::make_unique<service::ShardedAdmissionService>(
      core::FeasibleRegion::deadline_monotonic(kStages), cfg);
  double last = 0;
  core::TaskSpec spec;
  spec.stages.resize(kStages);
  for (std::size_t l = 0; l < s.lanes; ++l) {
    auto lane = std::make_unique<Lane>();
    for (std::size_t p = 0; p < 2; ++p) {
      const LaneInput in = lane_input(seed, s.lanes, l, p);
      ingest::WireEncoder enc(kStages, 0.0);
      for (std::size_t k = 0; k < kLanePool; ++k) {
        const Arrival& a = in.arrivals[k];
        fill_spec(spec, in.ids[k], a.deadline, a.demand);
        enc.add(a.offset, spec);
        double w = 0;
        for (std::size_t i = 0; i < a.demand.n; ++i) w += a.demand.compute[i];
        lane->work[p].push_back(w);
      }
      const auto bytes = enc.frame();
      lane->frame[p].assign(bytes.begin(), bytes.end());
      last = std::max(last, in.arrivals.back().offset);
    }
    lane->session = std::make_unique<ingest::IngestSession>(kStages);
    for (std::size_t p = 0; p < 2; ++p) {
      ingest::WireParse parse;
      lane->view[p] = ingest::WireView::open(lane->frame[p], &parse);
      if (!lane->view[p].valid()) {
        lane->error = ingest::wire_error_name(parse.error);
      } else if (const auto c = lane->session->check(lane->view[p]); !c.ok()) {
        lane->error = ingest::wire_error_name(c.error);
      }
    }
    lane->lat.reserve(kLanePool);
    s.lane.push_back(std::move(lane));
  }
  // Two periods must cover a frame's span plus the longest deadline (an
  // id's previous instance has then expired, even when a shard clock was
  // pushed ahead by another lane); one frame already spans > d_max.
  s.period = last + 1.0 / kLaneRate;
}

// The service path that settled a decision, from its reason.
Layer layer_of(AdmissionDecision::Reason r) {
  switch (r) {
    case AdmissionDecision::Reason::kAtomicFastPath:
      return kAtomicAdmit;
    case AdmissionDecision::Reason::kQuotaFallback:
    case AdmissionDecision::Reason::kQuotaFallbackRejected:
      return kFallback;
    default:
      return kLocked;
  }
}

// One lane's share of round `r`. Lanes meet at `sync` every kSyncEvery
// records, so their arrival instants stay interleaved and no lane pushes
// the shard clocks far ahead of the others.
template <bool kTraced>
void lane_round(Skew& s, std::size_t l, std::uint64_t r,
                std::barrier<>& sync) {
  Lane& lane = *s.lane[l];
  const std::size_t p = r % 2;
  const double shift = static_cast<double>(r) * s.period;
  const std::uint64_t req0 = ((r * s.lanes) + l) * kLanePool;
  // Entries of round r - 3 leave the ledger; they expired before this
  // round's first arrival, which precedes t_end.
  auto& slot = lane.recent[r % 3];
  const double first_t = lane.view[p].base_time() + shift;
  for (const AdmittedRef& a : slot) {
    if (a.decided_at + a.deadline > first_t)
      lane.error = "ledger would drop a task still live";
  }
  slot.clear();
  lane.lat.clear();
  lane.admitted_work = 0;
  ingest::ArrivalCursor cur = lane.view[p].cursor();
  ingest::WireArrival a;
  std::uint32_t k = 0;
  for (;;) {
    AdmissionDecision d;
    if constexpr (kTraced) {
      Tracer& tr = lane.tracer;
      tr.begin(kArrival, req0 + k);
      tr.begin(kDecode, req0 + k);
      const bool more = cur.next(a);
      tr.end();
      if (!more) {
        tr.end();
        break;
      }
      tr.begin(kAssemble, req0 + k);
      const core::TaskSpec& spec = lane.session->assemble(a);
      tr.end();
      lane.last_t = a.arrival() + shift;
      tr.begin(kLocked, req0 + k);
      d = s.svc->try_admit(spec, lane.last_t);
      tr.end(layer_of(d.reason));
      tr.end();
    } else {
      if (!cur.next(a)) break;
      const core::TaskSpec& spec = lane.session->assemble(a);
      lane.last_t = a.arrival() + shift;
      const std::int64_t d0 = now_ns();
      d = s.svc->try_admit(spec, lane.last_t);
      lane.lat.push_back(now_ns() - d0);
    }
    if (d.admitted) {
      ++lane.admits;
      lane.admitted_work += lane.work[p][k];
      slot.push_back({d.decided_at, a.deadline(), k});
    } else {
      ++lane.rejects;
    }
    if (++k % kSyncEvery == 0) sync.arrive_and_wait();
  }
}

// Runs rounds on `lanes` threads (the caller is lane 0) until `more`
// returns false; `done(round, wall_s)` is called on lane 0 after each.
template <typename More, typename Done>
void run_rounds(Skew& s, More&& more, Done&& done) {
  std::barrier<> sync(static_cast<std::ptrdiff_t>(s.lanes));
  std::atomic<bool> stop{false};
  std::atomic<bool> traced{false};
  std::uint64_t round_no = 0;  // written by lane 0 before the start barrier
  const auto work = [&](std::size_t l) {
    traced.load() ? lane_round<true>(s, l, round_no, sync)
                  : lane_round<false>(s, l, round_no, sync);
  };
  std::vector<std::jthread> workers;
  for (std::size_t l = 1; l < s.lanes; ++l) {
    workers.emplace_back([&, l] {
      for (;;) {
        sync.arrive_and_wait();
        if (stop.load()) return;
        work(l);
        sync.arrive_and_wait();
      }
    });
  }
  bool trace_round = false;
  while (more(trace_round)) {
    round_no = s.rounds;
    traced.store(trace_round);
    const std::int64_t t0 = now_ns();
    sync.arrive_and_wait();
    work(0);
    sync.arrive_and_wait();
    const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
    ++s.rounds;
    done(trace_round, wall);
  }
  stop.store(true);
  sync.arrive_and_wait();
}

}  // namespace

Result run_sharded_skew(const Options& o) {
  Result res;
  Skew s;
  const double setup_s = timed_setups(kSetupRepeats, [&] {
    setup(s, o.seed);
    for (const auto& lane : s.lane)
      if (!lane->error.empty()) return;
    int warm = 0;  // two rounds: both frames, steady weights
    run_rounds(s, [&](bool& tr) { tr = false; return warm++ < 2; },
               [](bool, double) {});
  });
  for (const auto& lane : s.lane) {
    if (!lane->error.empty()) res.fail_check("lane: " + lane->error);
  }
  if (!res.correct) return res;

  std::vector<RoundStats> plain, traced;
  double admitted_work = 0;
  std::uint64_t measured = 0;
  double rss = 0;
  std::uint64_t lane_admits0 = 0, lane_rejects0 = 0;
  for (const auto& lane : s.lane) {
    lane_admits0 += lane->admits;
    lane_rejects0 += lane->rejects;
  }
  std::vector<std::int64_t> lat;
  const std::int64_t start = now_ns();
  run_rounds(
      s,
      [&](bool& tr) {
        tr = o.trace && measured % 2 == 1;
        return more_rounds(o, start, plain, traced);
      },
      [&](bool tr, double wall) {
        RoundStats r;
        r.wall_s = wall;
        r.arrivals = static_cast<double>(s.lanes * kLanePool);
        lat.clear();
        for (const auto& lane : s.lane) {
          admitted_work += lane->admitted_work;
          lat.insert(lat.end(), lane->lat.begin(), lane->lat.end());
        }
        if (!tr) {
          r.p50_ns = percentile(lat, 0.50);
          r.p99_ns = percentile(lat, 0.99);
        }
        (tr ? traced : plain).push_back(r);
        if (++measured == kRssRounds) rss = peak_rss_mb();
      });
  if (rss == 0) rss = peak_rss_mb();

  // Checks: every arrival decided, lane tallies equal the service's, and
  // the end state equals the sum over admitted tasks still live.
  const service::ServiceStats st = s.svc->stats();
  std::uint64_t admits = 0, rejects = 0;
  double t_end = 0;
  for (const auto& lane : s.lane) {
    if (!lane->error.empty()) res.fail_check("lane: " + lane->error);
    admits += lane->admits;
    rejects += lane->rejects;
    t_end = std::max(t_end, lane->last_t);
  }
  const std::uint64_t offered = s.rounds * s.lanes * kLanePool;
  if (auto why = compare_tallies(offered, admits, rejects, st.total_admits(),
                                 st.total_rejects());
      !why.empty())
    res.fail_check("tallies: " + why);
  if (st.decisions != offered)
    res.fail_check("service decisions " + std::to_string(st.decisions) +
                   " != arrivals " + std::to_string(offered));
  std::vector<AdmittedTask> live;
  for (std::size_t l = 0; l < s.lanes; ++l) {
    for (std::size_t back = 0; back < 3 && back < s.rounds; ++back) {
      const std::uint64_t r = s.rounds - 1 - back;
      const LaneInput in = lane_input(o.seed, s.lanes, l, r % 2);
      for (const AdmittedRef& a : s.lane[l]->recent[r % 3]) {
        if (a.deadline != in.arrivals[a.index].deadline)
          res.fail_check("ledger entry does not match its input");
        live.push_back({a.decided_at, a.deadline, in.arrivals[a.index].demand});
      }
    }
  }
  const std::vector<double> expected = live_utilization(live, t_end, kStages);
  const std::vector<double> got = s.svc->global_utilizations(t_end);
  if (auto why = compare_utilizations(expected, got); !why.empty())
    res.fail_check("end state: " + why);
  if (!(region_lhs(expected) <= 1.0 + 1e-9))
    res.fail_check("end state outside the region");
  res.attempted = offered;

  const double span = static_cast<double>(measured) * s.period;
  if (!o.trace) {
    res.add("setup_s", setup_s, "s");
    add_round_metrics(res, plain);
    res.add("admitted_load", admitted_work / (span * kStages), "fraction");
    res.add("peak_rss_mb", rss, "MiB");
    return res;
  }
  Tracer tracer;
  for (const auto& lane : s.lane) tracer.merge(lane->tracer);
  add_layer_times(res, tracer,
                  {kDecode, kAssemble, kAtomicAdmit, kLocked, kFallback,
                   kArrival});
  res.add("core.admits", static_cast<double>(admits - lane_admits0), "count");
  res.add("core.rejects", static_cast<double>(rejects - lane_rejects0),
          "count");
  std::uint64_t atomic_admits = 0, atomic_rejects = 0, inconclusive = 0,
                fb_admits = 0, fb_rejects = 0, live_tasks = 0;
  for (const auto& sh : st.shards) {
    atomic_admits += sh.atomic_admits;
    atomic_rejects += sh.atomic_rejects;
    inconclusive += sh.atomic_inconclusive;
    fb_admits += sh.fallback_admits;
    fb_rejects += sh.fallback_rejects;
    live_tasks += sh.live_tasks;
  }
  res.add("core.live_tasks", static_cast<double>(live_tasks), "count");
  res.add("service.atomic_admits", static_cast<double>(atomic_admits), "count");
  // Structurally 0 with the fallback on: every atomic-path reject is
  // re-decided under the global lock.
  res.add("service.atomic_rejects", static_cast<double>(atomic_rejects),
          "count", true);
  res.add("service.atomic_inconclusive", static_cast<double>(inconclusive),
          "count", true);
  res.add("service.fallback_admits", static_cast<double>(fb_admits), "count");
  res.add("service.fallback_rejects", static_cast<double>(fb_rejects),
          "count");
  // Often 0: quota stealing in the fallback keeps weights within the
  // rebalance deadband.
  res.add("service.rebalances", static_cast<double>(st.rebalances), "count",
          true);
  res.add("service.fallback_ratio",
          static_cast<double>(fb_admits + fb_rejects) /
              static_cast<double>(st.decisions),
          "fraction");
  res.add("bench.trace_overhead_pct", trace_overhead_pct(plain, traced), "%");
  if (!o.trace_out.empty() && !write_spans(o.trace_out, tracer.spans()))
    res.fail_check("cannot write " + o.trace_out);
  return res;
}

}  // namespace frapbench
