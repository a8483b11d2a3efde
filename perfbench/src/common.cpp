#include "common.h"

#include <algorithm>
#include <fstream>
#include <string>

namespace frapbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return 0.5 * (lo + hi);
}

double percentile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0;
  auto k = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  k = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return static_cast<double>(v[k]);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;  // reported as missing by the caller's zero check
}

const char* layer_name(Layer l) {
  switch (l) {
    case kArrival: return "bench.arrival";
    case kDecode: return "ingest.decode";
    case kAssemble: return "ingest.assemble";
    case kAdvance: return "sim.advance";
    case kAdmit: return "core.admit";
    case kReject: return "core.reject";
    case kAtomicAdmit: return "service.atomic_admit";
    case kLocked: return "service.locked";
    case kFallback: return "service.fallback";
    case kStart: return "pipeline.start";
    case kIntern: return "core.intern";
    case kGraphAdmit: return "core.graph_admit";
    case kGraphReject: return "core.graph_reject";
    case kLayerCount: break;
  }
  return "none";
}

void Tracer::merge(const Tracer& other) {
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    self_ns_[l] += other.self_ns_[l];
    calls_[l] += other.calls_[l];
  }
  for (const SpanRecord& s : other.spans_) {
    if (spans_.size() >= spans_.capacity()) break;
    spans_.push_back(s);
  }
}

bool write_spans(const std::string& path, const std::vector<SpanRecord>& s) {
  std::ofstream out(path);
  if (!out) return false;
  out << "request\tlayer\tparent\tstart_ns\tend_ns\n";
  for (const SpanRecord& r : s) {
    out << r.request << '\t' << layer_name(static_cast<Layer>(r.layer)) << '\t'
        << layer_name(static_cast<Layer>(r.parent)) << '\t' << r.start_ns
        << '\t' << r.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

void add_round_metrics(Result& r, const std::vector<RoundStats>& rounds) {
  std::vector<double> rate, p50, p99;
  for (const RoundStats& s : rounds) {
    rate.push_back(s.arrivals / s.wall_s);
    p50.push_back(s.p50_ns);
    p99.push_back(s.p99_ns);
  }
  r.add("arrivals_per_s", median(std::move(rate)), "1/s");
  r.add("decide_p50_ns", median(std::move(p50)), "ns");
  r.add("decide_p99_ns", median(std::move(p99)), "ns");
}

bool more_rounds(const Options& o, std::int64_t start,
                 const std::vector<RoundStats>& untraced,
                 const std::vector<RoundStats>& traced) {
  const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
  return elapsed < o.seconds || untraced.size() < 3 ||
         (o.trace && traced.size() < 3);
}

double trace_overhead_pct(const std::vector<RoundStats>& untraced,
                          const std::vector<RoundStats>& traced) {
  const auto rates = [](const std::vector<RoundStats>& rs) {
    std::vector<double> v;
    for (const RoundStats& s : rs) v.push_back(s.arrivals / s.wall_s);
    return median(v);
  };
  return 100.0 * (rates(untraced) / rates(traced) - 1.0);
}

void add_layer_times(Result& r, const Tracer& t,
                     std::initializer_list<Layer> layers) {
  for (Layer l : layers)
    r.add(std::string(layer_name(l)) + "_ns", t.mean_self_ns(l), "ns");
}

}  // namespace frapbench
