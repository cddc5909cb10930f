#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace htapbench {

using oltap::Database;
using oltap::QueryResult;
using oltap::Result;
using oltap::Status;
using oltap::Value;
using oltap::ValueType;

namespace {

Result<QueryResult> Query(Database* db, const std::string& sql) {
  auto r = db->Execute(sql);
  if (!r.ok()) {
    return Status::Internal(sql + ": " + r.status().ToString());
  }
  return r;
}

Result<int64_t> ScalarInt(Database* db, const std::string& sql) {
  auto r = Query(db, sql);
  if (!r.ok()) return r.status();
  if (r->rows.size() != 1 || r->rows[0].empty()) {
    return Status::Internal(sql + ": expected one row");
  }
  return r->rows[0][0].AsInt64();
}

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.type() == ValueType::kDouble || b.type() == ValueType::kDouble) {
    return Close(a.AsDouble(), b.AsDouble());
  }
  return a == b;
}

// Per-warehouse doubles from a two-column (w_id, value) result.
Result<std::vector<double>> PerWarehouse(Database* db, const std::string& sql) {
  auto r = Query(db, sql);
  if (!r.ok()) return r.status();
  std::vector<double> out;
  for (const oltap::Row& row : r->rows) out.push_back(row[1].AsDouble());
  return out;
}

}  // namespace

Result<TpccState> ReadTpccState(Database* db) {
  TpccState s;
  auto w = PerWarehouse(db, "SELECT w_id, w_ytd FROM warehouse ORDER BY w_id");
  if (!w.ok()) return w.status();
  s.w_ytd = std::move(w).value();
  auto d = PerWarehouse(db,
                        "SELECT d_w_id, SUM(d_ytd) AS ytd FROM district "
                        "GROUP BY d_w_id ORDER BY d_w_id");
  if (!d.ok()) return d.status();
  s.d_ytd_sum = std::move(d).value();

  auto next_sum = ScalarInt(db, "SELECT SUM(d_next_o_id) AS s FROM district");
  auto districts = ScalarInt(db, "SELECT COUNT(*) AS n FROM district");
  auto orders = ScalarInt(db, "SELECT COUNT(*) AS n FROM orders");
  auto ol_cnt = ScalarInt(db, "SELECT SUM(o_ol_cnt) AS s FROM orders");
  auto lines = ScalarInt(db, "SELECT COUNT(*) AS n FROM orderline");
  for (const auto* r : {&next_sum, &districts, &orders, &ol_cnt, &lines}) {
    if (!r->ok()) return r->status();
  }
  s.next_o_id_sum = *next_sum - *districts;
  s.orders = *orders;
  s.ol_cnt_sum = *ol_cnt;
  s.orderlines = *lines;
  return s;
}

std::vector<std::string> CheckTpccConsistency(const TpccState& s) {
  std::vector<std::string> failed;
  if (s.w_ytd.empty() || s.w_ytd.size() != s.d_ytd_sum.size()) {
    failed.push_back("W_YTD = sum(D_YTD): warehouse/district count mismatch");
  } else {
    for (size_t i = 0; i < s.w_ytd.size(); ++i) {
      // Payments add the same amounts to both sides, summed in different
      // orders; allow the rounding that reordering can introduce.
      if (std::fabs(s.w_ytd[i] - s.d_ytd_sum[i]) >
          1e-6 * std::max(1.0, std::fabs(s.w_ytd[i]))) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "W_YTD = sum(D_YTD) fails for warehouse %zu: %.6f vs %.6f",
                      i + 1, s.w_ytd[i], s.d_ytd_sum[i]);
        failed.push_back(buf);
      }
    }
  }
  if (s.next_o_id_sum != s.orders) {
    failed.push_back("sum(D_NEXT_O_ID - 1) = count(orders) fails: " +
                     std::to_string(s.next_o_id_sum) + " vs " +
                     std::to_string(s.orders));
  }
  if (s.ol_cnt_sum != s.orderlines) {
    failed.push_back("sum(O_OL_CNT) = count(orderline) fails: " +
                     std::to_string(s.ol_cnt_sum) + " vs " +
                     std::to_string(s.orderlines));
  }
  return failed;
}

bool SameState(const TpccState& a, const TpccState& b) {
  auto same_vec = [](const std::vector<double>& x,
                     const std::vector<double>& y) {
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (!Close(x[i], y[i])) return false;
    }
    return true;
  };
  return same_vec(a.w_ytd, b.w_ytd) && same_vec(a.d_ytd_sum, b.d_ytd_sum) &&
         a.next_o_id_sum == b.next_o_id_sum && a.orders == b.orders &&
         a.ol_cnt_sum == b.ol_cnt_sum && a.orderlines == b.orderlines;
}

Result<size_t> CountMissingAcks(Database* db,
                                const std::vector<oltap::NewOrderAck>& acks) {
  auto r = Query(db, "SELECT o_w_id, o_d_id, o_id FROM orders");
  if (!r.ok()) return r.status();
  auto key = [](int64_t w, int64_t d, int64_t o) {
    return (static_cast<uint64_t>(w) << 48) ^ (static_cast<uint64_t>(d) << 32) ^
           static_cast<uint64_t>(o);
  };
  std::unordered_set<uint64_t> present;
  present.reserve(r->rows.size());
  for (const oltap::Row& row : r->rows) {
    present.insert(key(row[0].AsInt64(), row[1].AsInt64(), row[2].AsInt64()));
  }
  size_t missing = 0;
  for (const oltap::NewOrderAck& a : acks) {
    if (present.count(key(a.w, a.d, a.o_id)) == 0) ++missing;
  }
  return missing;
}

bool SameResult(const QueryResult& a, const QueryResult& b) {
  if (a.columns != b.columns || a.rows.size() != b.rows.size()) return false;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    if (a.rows[i].size() != b.rows[i].size()) return false;
    for (size_t j = 0; j < a.rows[i].size(); ++j) {
      if (!SameValue(a.rows[i][j], b.rows[i][j])) return false;
    }
  }
  return true;
}

uint64_t Digest(const QueryResult& r, uint64_t seed) {
  uint64_t h = seed ^ 1469598103934665603ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= 0xff;
    h *= 1099511628211ULL;
  };
  for (const std::string& c : r.columns) mix(c);
  for (const oltap::Row& row : r.rows) {
    for (const Value& v : row) {
      if (!v.is_null() && v.type() == ValueType::kDouble) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.12g", v.AsDouble());
        mix(buf);
      } else {
        mix(v.ToString());
      }
    }
  }
  return h;
}

}  // namespace htapbench
