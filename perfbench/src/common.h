// Shared pieces of the frap end-to-end benchmark: options, the result
// record every workload fills, the span tracer used in traced runs, and
// small statistics helpers. Nothing here calls into frap.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace frapbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // span dump written at exit (traced runs only)
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Median of `v` (copied; v may be empty -> 0).
double median(std::vector<double> v);

// Nearest-rank percentile q in [0, 1] of `v`, reordering it in place.
double percentile(std::vector<std::int64_t>& v, double q);

// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------- spans ---

// Layers the benchmark times in traced runs. Each span is recorded around
// one public call into frap from the benchmark's own loop; kArrival is the
// root span of one arrival, so its self time is the benchmark's own work.
enum Layer : std::uint8_t {
  kArrival,
  kDecode,
  kAssemble,
  kAdvance,
  kAdmit,
  kReject,
  kAtomicAdmit,
  kLocked,
  kFallback,
  kStart,
  kIntern,
  kGraphAdmit,
  kGraphReject,
  kLayerCount
};

const char* layer_name(Layer l);

struct SpanRecord {
  std::uint64_t request;  // arrival sequence number (lane-qualified)
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint8_t layer;
  std::uint8_t parent;  // kLayerCount for a root span
};

// Stack-based span recorder. Self time of a span is its duration minus the
// durations of its direct children; per-layer self time and call counts
// are accumulated online, and the first `capacity` spans are kept in
// memory for the dump written at exit. One tracer per thread.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = std::size_t{1} << 17) {
    spans_.reserve(capacity);
  }

  void begin(Layer l, std::uint64_t request) {
    Open& o = stack_[depth_++];
    o.layer = l;
    o.request = request;
    o.child_ns = 0;
    o.start = now_ns();
  }

  // Closes the innermost span; `as` relabels it (for calls whose layer is
  // known only from their result, e.g. an admit versus a reject).
  void end(Layer as = kLayerCount) {
    const std::int64_t t = now_ns();
    Open& o = stack_[--depth_];
    const Layer l = as == kLayerCount ? o.layer : as;
    const std::int64_t dur = t - o.start;
    self_ns_[l] += dur - o.child_ns;
    ++calls_[l];
    Layer parent = kLayerCount;
    if (depth_ > 0) {
      stack_[depth_ - 1].child_ns += dur;
      parent = stack_[depth_ - 1].layer;
    }
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back({o.request, o.start, t, static_cast<std::uint8_t>(l),
                        static_cast<std::uint8_t>(parent)});
    }
  }

  // Mean self time per call, 0 for a layer that was never called.
  [[nodiscard]] double mean_self_ns(Layer l) const {
    return calls_[l] == 0 ? 0.0
                          : static_cast<double>(self_ns_[l]) /
                                static_cast<double>(calls_[l]);
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Adds another tracer's totals and spans (lanes merged after a run).
  void merge(const Tracer& other);

 private:
  struct Open {
    Layer layer = kArrival;
    std::uint64_t request = 0;
    std::int64_t start = 0;
    std::int64_t child_ns = 0;
  };
  std::array<Open, 8> stack_{};
  std::size_t depth_ = 0;
  std::array<std::int64_t, kLayerCount> self_ns_{};
  std::array<std::uint64_t, kLayerCount> calls_{};
  std::vector<SpanRecord> spans_;
};

// Writes spans as tab-separated text: request, layer, parent, start, end.
bool write_spans(const std::string& path, const std::vector<SpanRecord>& s);

// ---------------------------------------------------------------- result ---

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool may_be_zero = false;  // a count the program may legitimately leave 0
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // why `correct` is false, if it is

  void add(std::string name, double value, std::string unit,
           bool may_be_zero = false) {
    metrics.push_back({std::move(name), value, std::move(unit), may_be_zero});
  }
  void fail_check(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

// Per-round figures of an untraced round.
struct RoundStats {
  double arrivals = 0;
  double wall_s = 0;
  double p50_ns = 0;
  double p99_ns = 0;
};

// Summarizes measured rounds into the end-to-end metrics shared by every
// workload (all but setup_s, admitted_load and peak_rss_mb): the medians,
// over rounds, of each round's arrival rate and latency percentiles. On a
// shared host other tenants stall the benchmark for milliseconds at a
// time, in bursts that cover some rounds of a run; a median over rounds
// reads the rounds they spared, where a rate over the whole run's wall
// time moved by up to 16% between runs of one seed.
void add_round_metrics(Result& r, const std::vector<RoundStats>& rounds);

// Runs `setup` `repeats` times and returns the median wall time in seconds.
template <typename F>
double timed_setups(int repeats, F&& setup) {
  std::vector<double> t;
  for (int i = 0; i < repeats; ++i) {
    const std::int64_t t0 = now_ns();
    setup();
    t.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(std::move(t));
}

// True while a run should start another measured round: until --seconds
// have passed since `start` and at least three untraced rounds (and, in a
// traced run, three traced ones) were measured.
bool more_rounds(const Options& o, std::int64_t start,
                 const std::vector<RoundStats>& untraced,
                 const std::vector<RoundStats>& traced);

// Number of setups per run whose median is reported as setup_s.
inline constexpr int kSetupRepeats = 9;

// peak_rss_mb is read after this many measured rounds (or at the end of a
// shorter run), so it covers the same work whatever the run length.
inline constexpr std::uint64_t kRssRounds = 8;

// Traced runs alternate untraced and traced rounds; the ratio of their
// median rates is the tracing overhead.
double trace_overhead_pct(const std::vector<RoundStats>& untraced,
                          const std::vector<RoundStats>& traced);

// Adds "<layer name>_ns", the mean self time per call, for each layer.
void add_layer_times(Result& r, const Tracer& t,
                     std::initializer_list<Layer> layers);

Result run_ingest_churn(const Options& o);
Result run_sharded_skew(const Options& o);
Result run_pipeline_sim(const Options& o);
Result run_dag_sim(const Options& o);

}  // namespace frapbench
