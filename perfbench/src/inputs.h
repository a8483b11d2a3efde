// Input generation. Every workload draws its inputs from the run's --seed
// with these helpers; frap receives only the generated values.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "checks.h"
#include "core/task.h"

namespace frapbench {

using Rng = std::mt19937_64;

// Balanced cap of a 5-stage deadline-monotonic region: the per-stage U at
// which 5 f(U) = 1, the root of U^2 / 2 - 1.2 U + 0.2 = 0 in [0, 1).
inline const double kBalancedCap5 = 1.2 - std::sqrt(1.04);

inline double uniform(Rng& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

inline double exponential(Rng& rng, double rate) {
  return std::exponential_distribution<double>(rate)(rng);
}

// Sparse pipeline arrivals (ingest_churn, sharded_skew, self-test):
// Poisson arrivals at `rate`; each touches between min_touch and max_touch
// distinct stages (count and stages uniform), with demand uniform on
// [0.5, 1.5] x mean_compute per touched stage and a relative deadline
// uniform on [d_min, d_max].
struct SparseConfig {
  std::size_t stages = 5;
  int min_touch = 1;
  int max_touch = 3;
  double mean_compute = 1e-4;
  double d_min = 0.5;
  double d_max = 1.5;
  double rate = 1000;
};

struct Arrival {
  double offset = 0;  // from the start of the pool, seconds
  double deadline = 0;
  Demand demand;
};

inline std::vector<Arrival> sparse_arrivals(Rng& rng, const SparseConfig& c,
                                            std::size_t n) {
  std::vector<Arrival> out(n);
  std::vector<std::uint32_t> order(c.stages);
  double t = 0;
  for (Arrival& a : out) {
    t += exponential(rng, c.rate);
    a.offset = t;
    a.deadline = uniform(rng, c.d_min, c.d_max);
    const int k =
        std::uniform_int_distribution<int>(c.min_touch, c.max_touch)(rng);
    for (std::uint32_t j = 0; j < c.stages; ++j) order[j] = j;
    std::shuffle(order.begin(), order.end(), rng);
    std::sort(order.begin(), order.begin() + k);
    a.demand.n = static_cast<std::uint8_t>(k);
    for (int i = 0; i < k; ++i) {
      a.demand.stage[i] = order[i];
      a.demand.compute[i] = uniform(rng, 0.5, 1.5) * c.mean_compute;
    }
  }
  return out;
}

// Writes `d` into a full-width spec (every other stage zero).
inline void fill_spec(frap::core::TaskSpec& spec, std::uint64_t id,
                      double deadline, const Demand& d) {
  spec.id = id;
  spec.deadline = deadline;
  spec.importance = 1.0;
  for (auto& s : spec.stages) s.compute = 0;
  for (std::size_t i = 0; i < d.n; ++i)
    spec.stages[d.stage[i]].compute = d.compute[i];
}

}  // namespace frapbench
