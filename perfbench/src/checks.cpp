#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/admission.h"
#include "core/feasible_region.h"
#include "core/synthetic_utilization.h"
#include "inputs.h"
#include "pipeline/pipeline_runtime.h"
#include "service/sharded_admission.h"
#include "sim/simulator.h"

namespace frapbench {

double delay_factor(double u) {
  if (u >= 1.0) return std::numeric_limits<double>::infinity();
  return u * (1.0 - u / 2.0) / (1.0 - u);
}

double region_lhs(std::span<const double> u) {
  double s = 0;
  for (double x : u) s += delay_factor(x);
  return s;
}

// ------------------------------------------------------------ RegionSweep ---

RegionSweep::RegionSweep(std::size_t stages, double bound, double eps)
    : stages_(stages), bound_(bound), eps_(eps) {
  // Sized past ingest_churn's ~10.7k live tasks up front, so the check's
  // own memory does not vary with the seed.
  heap_.reserve(std::size_t{1} << 15);
}

void RegionSweep::expire(double t) {
  while (!heap_.empty() && heap_.front().expiry <= t) {
    const Live& l = heap_.front();
    for (std::size_t j = 0; j < stages_; ++j) u_[j] -= l.c[j];
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
}

// Re-adds the live contributions from scratch so the running sums carry no
// drift from millions of add/subtract pairs.
void RegionSweep::resum() {
  u_.fill(0.0);
  for (const Live& l : heap_)
    for (std::size_t j = 0; j < stages_; ++j) u_[j] += l.c[j];
  since_resum_ = 0;
}

void RegionSweep::check(double t, double deadline, const Demand& d,
                        bool admitted) {
  expire(t);
  if (++since_resum_ >= 65536) resum();
  std::array<double, kMaxStages> c{};
  for (std::size_t i = 0; i < d.n; ++i) c[d.stage[i]] = d.compute[i] / deadline;
  double lhs = 0;
  for (std::size_t j = 0; j < stages_; ++j)
    lhs += delay_factor(std::max(0.0, u_[j]) + c[j]);
  ++checked_;
  if (!(admitted ? lhs <= bound_ + eps_ : lhs > bound_ - eps_)) ++violations_;
  if (admitted) {
    for (std::size_t j = 0; j < stages_; ++j) u_[j] += c[j];
    heap_.push_back({t + deadline, c});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
}

// -------------------------------------------------------- sharded ledger ---

std::vector<double> live_utilization(std::span<const AdmittedTask> tasks,
                                     double t, std::size_t stages) {
  std::vector<double> u(stages, 0.0);
  for (const AdmittedTask& a : tasks) {
    if (!(a.decided_at <= t && t < a.decided_at + a.deadline)) continue;
    for (std::size_t i = 0; i < a.demand.n; ++i)
      u[a.demand.stage[i]] += a.demand.compute[i] / a.deadline;
  }
  return u;
}

std::string compare_utilizations(std::span<const double> expected,
                                 std::span<const double> got,
                                 double rel_tol) {
  if (expected.size() != got.size()) return "stage count differs";
  for (std::size_t j = 0; j < got.size(); ++j) {
    const double scale = std::max({std::fabs(expected[j]), 1e-3});
    if (!(std::fabs(expected[j] - got[j]) <= rel_tol * scale)) {
      std::ostringstream os;
      os.precision(17);
      os << "stage " << j << " utilization " << got[j] << ", expected "
         << expected[j];
      return os.str();
    }
  }
  return {};
}

std::string compare_tallies(std::uint64_t offered, std::uint64_t admitted,
                            std::uint64_t rejected,
                            std::uint64_t program_admitted,
                            std::uint64_t program_rejected) {
  std::ostringstream os;
  if (offered != admitted + rejected)
    os << "offered " << offered << " != admitted " << admitted
       << " + rejected " << rejected << "; ";
  if (admitted != program_admitted)
    os << "admitted " << admitted << " != program's " << program_admitted
       << "; ";
  if (rejected != program_rejected)
    os << "rejected " << rejected << " != program's " << program_rejected
       << "; ";
  return os.str();
}

// ------------------------------------------------------ CompletionLedger ---

void CompletionLedger::admitted(std::uint64_t id, double release,
                                double deadline) {
  open_[id] = Open{release, deadline};
}

void CompletionLedger::completed(std::uint64_t id, double at) {
  const auto it = open_.find(id);
  if (it == open_.end()) {
    ++unknown_;
    return;
  }
  const double response = at - it->second.release;
  response <= it->second.deadline * (1.0 + 1e-12) ? ++on_time_ : ++late_;
  open_.erase(it);
}

// ------------------------------------------------------------- self-test ---

namespace {

using frap::core::AdmissionController;
using frap::core::FeasibleRegion;
using frap::core::SyntheticUtilizationTracker;
using frap::core::TaskSpec;

constexpr std::size_t kStages = 5;

std::string test_region_sweep() {
  Rng rng(20040324);
  SparseConfig c;
  c.rate = 2000;
  c.mean_compute = 3e-4;  // ~1.3x the balanced cap: admits and rejects
  const auto in = sparse_arrivals(rng, c, 4000);

  frap::sim::Simulator sim;
  SyntheticUtilizationTracker tracker(sim, kStages);
  AdmissionController ctl(sim, tracker,
                          FeasibleRegion::deadline_monotonic(kStages));
  TaskSpec spec;
  spec.stages.resize(kStages);
  std::vector<bool> admitted(in.size());
  std::vector<double> lhs(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    sim.run_until(in[i].offset);
    fill_spec(spec, i + 1, in[i].deadline, in[i].demand);
    const auto d = ctl.try_admit(spec, in[i].offset);
    admitted[i] = d.admitted;
    lhs[i] = d.lhs_with_task;
  }
  const auto violations = [&](const std::vector<bool>& dec) {
    RegionSweep s(kStages, 1.0);
    for (std::size_t i = 0; i < in.size(); ++i)
      s.check(in[i].offset, in[i].deadline, in[i].demand, dec[i]);
    return s.violations();
  };
  const auto n_admit = std::count(admitted.begin(), admitted.end(), true);
  if (n_admit == 0 || n_admit == static_cast<long>(in.size()))
    return "region sweep: fixture has no admit/reject mix";
  if (violations(admitted) != 0) return "region sweep rejects frap's result";

  // A clear admit (well inside) flipped to a reject, and the reverse.
  std::size_t flip_admit = in.size(), flip_reject = in.size();
  for (std::size_t i = in.size() / 4; i < in.size(); ++i) {
    if (admitted[i] && lhs[i] < 1.0 - 1e-3 && flip_admit == in.size())
      flip_admit = i;
    if (!admitted[i] && lhs[i] > 1.0 + 1e-3 && flip_reject == in.size())
      flip_reject = i;
  }
  if (flip_admit == in.size() || flip_reject == in.size())
    return "region sweep: no decision to corrupt";
  auto a = admitted;
  a[flip_admit] = false;
  if (violations(a) == 0) return "region sweep accepts an admit flipped to reject";
  a = admitted;
  a[flip_reject] = true;
  if (violations(a) == 0) return "region sweep accepts a reject flipped to admit";
  return {};
}

std::string test_sharded_ledger() {
  Rng rng(20040325);
  SparseConfig c;
  c.rate = 2000;
  c.mean_compute = 3e-4;
  const auto in = sparse_arrivals(rng, c, 3000);
  frap::service::ShardedAdmissionConfig cfg;
  cfg.num_shards = 8;
  frap::service::ShardedAdmissionService svc(
      FeasibleRegion::deadline_monotonic(kStages), cfg);
  TaskSpec spec;
  spec.stages.resize(kStages);
  std::vector<AdmittedTask> tasks;
  std::vector<std::size_t> rejected;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::uint64_t home = i % 2 == 0 ? 0 : 1 + (i / 2) % 7;
    fill_spec(spec, (i + 1) * 8 + home, in[i].deadline, in[i].demand);
    const auto d = svc.try_admit(spec, in[i].offset);
    if (d.admitted)
      tasks.push_back({d.decided_at, in[i].deadline, in[i].demand});
    else
      rejected.push_back(i);
  }
  const double t_end = in.back().offset;
  const auto st = svc.stats();
  const std::vector<double> got = svc.global_utilizations(t_end);
  const std::uint64_t n = in.size(), na = tasks.size(), nr = rejected.size();

  if (!compare_tallies(n, na, nr, st.total_admits(), st.total_rejects())
           .empty() ||
      st.decisions != n)
    return "sharded tallies reject frap's result";
  const auto expected = live_utilization(tasks, t_end, kStages);
  if (!compare_utilizations(expected, got).empty())
    return "sharded ledger rejects frap's end state: " +
           compare_utilizations(expected, got);
  if (!(region_lhs(expected) <= 1.0 + 1e-9))
    return "sharded end state outside the region";
  if (nr == 0) return "sharded fixture has no rejects";

  // Wrong end-state utilization.
  auto bad = got;
  bad[2] += 1e-6;
  if (compare_utilizations(expected, bad).empty())
    return "sharded ledger accepts a wrong end-state utilization";
  // An admitted task still live at t_end flipped to rejected.
  auto fewer = tasks;
  const auto live = std::find_if(fewer.begin(), fewer.end(), [&](auto& a) {
    return a.decided_at + a.deadline > t_end;
  });
  if (live == fewer.end()) return "sharded fixture has no live task";
  fewer.erase(live);
  if (compare_utilizations(live_utilization(fewer, t_end, kStages), got)
          .empty() ||
      compare_tallies(n, na - 1, nr + 1, st.total_admits(),
                      st.total_rejects())
          .empty())
    return "sharded checks accept an admit flipped to reject";
  // The last rejected arrival flipped to admitted.
  auto more = tasks;
  const std::size_t r = rejected.back();
  more.push_back({in[r].offset, in[r].deadline, in[r].demand});
  if (compare_utilizations(live_utilization(more, t_end, kStages), got)
          .empty())
    return "sharded checks accept a reject flipped to admit";
  return {};
}

std::string test_completion_ledger() {
  Rng rng(20040326);
  constexpr std::size_t kPipe = 3;
  frap::sim::Simulator sim;
  SyntheticUtilizationTracker tracker(sim, kPipe);
  AdmissionController ctl(sim, tracker,
                          FeasibleRegion::deadline_monotonic(kPipe));
  frap::pipeline::PipelineRuntime rt(sim, kPipe, &tracker);
  rt.set_priority_policy(frap::pipeline::deadline_monotonic_policy());

  struct Event {
    bool admit;
    std::uint64_t id;
    double t;
    double deadline;
  };
  std::vector<Event> events;
  rt.set_on_task_complete([&](const TaskSpec& s, frap::Duration, bool) {
    events.push_back({false, s.id, sim.now(), 0});
  });
  TaskSpec spec;
  spec.stages.resize(kPipe);
  std::uint64_t offered = 0, admitted = 0, rejected = 0;
  double t = 0;
  for (std::uint64_t id = 1; id <= 600; ++id) {
    t += exponential(rng, 1200.0);
    sim.run_until(t);
    spec.id = id;
    spec.deadline = uniform(rng, 0.05, 0.15);
    for (auto& s : spec.stages) s.compute = uniform(rng, 0.5e-3, 1.5e-3);
    ++offered;
    const auto d = ctl.try_admit(spec, t);
    if (!d.admitted) {
      ++rejected;
      continue;
    }
    ++admitted;
    events.push_back({true, id, t, spec.deadline});
    rt.start_task(spec, t + spec.deadline);
  }
  sim.run();

  const auto replay = [&](const std::vector<Event>& ev) {
    CompletionLedger l;
    for (const Event& e : ev)
      e.admit ? l.admitted(e.id, e.t, e.deadline) : l.completed(e.id, e.t);
    return l;
  };
  const CompletionLedger clean = replay(events);
  if (clean.late() != 0 || clean.pending() != 0 || clean.unknown() != 0 ||
      clean.on_time() != admitted ||
      !compare_tallies(offered, admitted, rejected, ctl.admitted(),
                       ctl.attempts() - ctl.admitted())
           .empty())
    return "completion checks reject frap's result";
  if (rejected == 0) return "completion fixture has no rejects";

  // A completion moved past its deadline.
  auto late = events;
  std::size_t admit_at = 0;
  while (!late[admit_at].admit) ++admit_at;
  for (Event& e : late) {
    if (!e.admit && e.id == late[admit_at].id)
      e.t = late[admit_at].t + late[admit_at].deadline * 1.01;
  }
  if (replay(late).late() == 0)
    return "completion checks accept a completion past its deadline";
  // A completion that never happened.
  auto lost = events;
  lost.erase(std::find_if(lost.begin(), lost.end(),
                          [](const Event& e) { return !e.admit; }));
  if (replay(lost).pending() == 0)
    return "completion checks accept a task that never completes";
  // An offered arrival missing from the decisions.
  if (compare_tallies(offered + 1, admitted, rejected, ctl.admitted(),
                      ctl.attempts() - ctl.admitted())
          .empty())
    return "completion checks accept offered != admitted + rejected";
  return {};
}

}  // namespace

std::string self_test() {
  for (auto* test :
       {&test_region_sweep, &test_sharded_ledger, &test_completion_ledger}) {
    if (std::string why = test(); !why.empty()) return why;
  }
  return {};
}

}  // namespace frapbench
