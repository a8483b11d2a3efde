// Output checks of the benchmark. Each one recomputes what the program
// decided from the inputs alone (its own f(U), its own sweep of live
// contributions, its own clock on completions) or checks a property the
// method must have; none compares against stored output of the program.
// self_test() shows that each check rejects a corrupted result.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace frapbench {

// Widest pipeline the sparse checks handle; the sparse workloads use 5.
inline constexpr std::size_t kMaxStages = 5;

// The paper's stage delay factor f(U) = U (1 - U/2) / (1 - U); +inf at
// U >= 1. Written here, not taken from frap.
double delay_factor(double u);

// Sum of f over a utilization vector.
double region_lhs(std::span<const double> u);

// Sparse per-stage demands of one task, relative deadline attached.
struct Demand {
  std::uint8_t n = 0;
  std::array<std::uint32_t, kMaxStages> stage{};
  std::array<double, kMaxStages> compute{};
};

// Single-controller sweep (ingest_churn): keeps every admitted task's
// contributions C_ij / D_i live on [A_i, A_i + D_i) and checks each
// decision against Σ_j f(U_j + c_j) with the task:
//   admitted  =>  Σ f <= bound + eps
//   rejected  =>  Σ f >  bound - eps
class RegionSweep {
 public:
  RegionSweep(std::size_t stages, double bound, double eps = 1e-9);

  // Checks the decision on an arrival at `t`, counting a violation.
  // Arrival instants must not decrease.
  void check(double t, double deadline, const Demand& d, bool admitted);

  [[nodiscard]] std::uint64_t checked() const { return checked_; }
  [[nodiscard]] std::uint64_t violations() const { return violations_; }

 private:
  struct Live {
    double expiry;
    std::array<double, kMaxStages> c;
  };
  static bool later(const Live& a, const Live& b) {
    return a.expiry > b.expiry;
  }
  void expire(double t);
  void resum();

  std::size_t stages_;
  double bound_;
  double eps_;
  std::vector<Live> heap_;  // min-heap on expiry
  std::array<double, kMaxStages> u_{};
  std::uint64_t checked_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t since_resum_ = 0;
};

// Admitted task as the sharded service decided it: live on
// [decided_at, decided_at + deadline).
struct AdmittedTask {
  double decided_at = 0;
  double deadline = 0;
  Demand demand;
};

// Σ C_ij / D_i over the tasks live at `t`.
std::vector<double> live_utilization(std::span<const AdmittedTask> tasks,
                                     double t, std::size_t stages);

// Empty when `got` equals `expected` within a relative tolerance; else a
// description of the first differing stage.
std::string compare_utilizations(std::span<const double> expected,
                                 std::span<const double> got,
                                 double rel_tol = 1e-9);

// Empty when the tallies agree; else what differs.
std::string compare_tallies(std::uint64_t offered, std::uint64_t admitted,
                            std::uint64_t rejected,
                            std::uint64_t program_admitted,
                            std::uint64_t program_rejected);

// Release-to-completion clock of the simulated workloads: every admitted
// task must complete, and its response must not exceed its deadline.
class CompletionLedger {
 public:
  void reserve(std::size_t tasks) { open_.reserve(tasks); }
  void admitted(std::uint64_t id, double release, double deadline);
  // Counts the completion as on time, late, or of an unknown task.
  void completed(std::uint64_t id, double at);

  [[nodiscard]] std::size_t pending() const { return open_.size(); }
  [[nodiscard]] std::uint64_t on_time() const { return on_time_; }
  [[nodiscard]] std::uint64_t late() const { return late_; }
  [[nodiscard]] std::uint64_t unknown() const { return unknown_; }

 private:
  struct Open {
    double release;
    double deadline;
  };
  std::unordered_map<std::uint64_t, Open> open_;
  std::uint64_t on_time_ = 0;
  std::uint64_t late_ = 0;
  std::uint64_t unknown_ = 0;
};

// Runs every check on a small result produced by frap, then on corrupted
// copies of it. Returns an empty string when every check accepts the clean
// result and rejects every corruption; else what went wrong.
std::string self_test();

}  // namespace frapbench
