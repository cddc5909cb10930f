#include "obs/trace.h"

#include <cstdio>

namespace oltap {
namespace obs {
namespace {

void RenderInto(const QueryProfile::Node& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(node.name);
  char buf[128];
  if (node.est_rows >= 0) {
    std::snprintf(buf, sizeof(buf), " est_rows=%.0f", node.est_rows);
    out->append(buf);
  }
  std::snprintf(buf, sizeof(buf),
                " rows=%llu batches=%llu time=%.3fms self=%.3fms",
                static_cast<unsigned long long>(node.rows),
                static_cast<unsigned long long>(node.batches),
                static_cast<double>(node.time_ns) * 1e-6,
                static_cast<double>(node.self_ns) * 1e-6);
  out->append(buf);
  out->push_back('\n');
  for (const QueryProfile::Node& child : node.children) {
    RenderInto(child, depth + 1, out);
  }
}

}  // namespace

std::string QueryProfile::Render() const {
  std::string out;
  RenderInto(root, 0, &out);
  return out;
}

}  // namespace obs
}  // namespace oltap
