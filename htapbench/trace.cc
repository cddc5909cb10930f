#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace htapbench {

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> all;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    all.insert(all.end(), s.spans.begin(), s.spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

bool Tracer::WriteCsv(const std::vector<Span>& spans,
                      const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,req,name,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

namespace {

// Length of the union of `children` clipped to [lo, hi].
double CoveredNs(std::vector<std::pair<int64_t, int64_t>> children,
                 int64_t lo, int64_t hi) {
  std::sort(children.begin(), children.end());
  double covered = 0;
  int64_t cursor = lo;
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += static_cast<double>(e - s);
      cursor = e;
    }
  }
  return covered;
}

std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
ChildrenByParent(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> out;
  for (const Span& s : spans) {
    if (s.parent != 0) out[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  return out;
}

}  // namespace

std::vector<double> ChildCoverage(const std::vector<Span>& spans,
                                  const char* root_name) {
  auto children = ChildrenByParent(spans);
  std::vector<double> shares;
  for (const Span& s : spans) {
    if (s.parent != 0 || std::string_view(s.name) != root_name) continue;
    double total = static_cast<double>(s.end_ns - s.start_ns);
    if (total <= 0) continue;
    auto it = children.find(s.id);
    double covered =
        it == children.end() ? 0 : CoveredNs(it->second, s.start_ns, s.end_ns);
    shares.push_back(covered / total);
  }
  return shares;
}

std::vector<std::pair<std::string, double>> SelfTimeMs(
    const std::vector<Span>& spans) {
  auto children = ChildrenByParent(spans);
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    auto it = children.find(s.id);
    double covered =
        it == children.end() ? 0 : CoveredNs(it->second, s.start_ns, s.end_ns);
    self[s.name] += (static_cast<double>(s.end_ns - s.start_ns) - covered) * 1e-6;
  }
  return {self.begin(), self.end()};
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace htapbench
