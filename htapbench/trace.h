#ifndef HTAPBENCH_TRACE_H_
#define HTAPBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace htapbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// One timed interval around a call into a layer. Spans of one request
// share `req`; `parent` is the enclosing span's id (0 for a request's
// root span). `name` points at a string literal.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t req = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// In-memory span store. Recording is a no-op when tracing is off, so the
// untraced runs that produce the end-to-end metrics pay one branch per
// boundary. Spans go to one of a few mutex-guarded shards picked by the
// recording thread, and are written out only after the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  uint64_t NewId() {
    return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }

  void Record(uint64_t id, uint64_t parent, uint64_t req, const char* name,
              int64_t start_ns, int64_t end_ns) {
    if (!enabled_) return;
    Shard& s = shards_[oltap::obs::ThreadShardIndex() % kShards];
    std::lock_guard<std::mutex> lock(s.mu);
    s.spans.push_back(Span{id, parent, req, name, start_ns, end_ns});
  }

  // Every span recorded so far, ordered by start time.
  std::vector<Span> Collect() const;

  // Writes `spans` as CSV (id,parent,req,name,start_ns,end_ns).
  static bool WriteCsv(const std::vector<Span>& spans,
                       const std::string& path);

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<Span> spans;
  };

  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  Shard shards_[kShards];
};

// For each root span named `root_name`: the share of its duration
// covered by the union of its child spans.
std::vector<double> ChildCoverage(const std::vector<Span>& spans,
                                  const char* root_name);

// Self time per span name: each span's duration minus the part of it
// that its child spans cover, summed over spans of that name.
std::vector<std::pair<std::string, double>> SelfTimeMs(
    const std::vector<Span>& spans);

// ---- Sample statistics. Percentiles interpolate linearly between
// closest ranks (q in [0, 1]); empty input gives 0. ----
double Percentile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}
double GeoMean(const std::vector<double>& v);
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace htapbench

#endif  // HTAPBENCH_TRACE_H_
