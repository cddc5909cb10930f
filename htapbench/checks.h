#ifndef HTAPBENCH_CHECKS_H_
#define HTAPBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sql/session.h"
#include "workload/chbench.h"

namespace htapbench {

// The quantities the three TPC-C consistency conditions are stated over,
// read through SQL.
struct TpccState {
  std::vector<double> w_ytd;      // W_YTD per warehouse, by w_id
  std::vector<double> d_ytd_sum;  // sum of D_YTD per warehouse, by w_id
  int64_t next_o_id_sum = 0;      // sum of (D_NEXT_O_ID - 1)
  int64_t orders = 0;             // count(orders)
  int64_t ol_cnt_sum = 0;         // sum of O_OL_CNT
  int64_t orderlines = 0;         // count(orderline)
};

oltap::Result<TpccState> ReadTpccState(oltap::Database* db);

// Failed conditions, empty when all hold:
//   W_YTD = sum(D_YTD) per warehouse,
//   sum(D_NEXT_O_ID - 1) = count(orders),
//   sum(O_OL_CNT) = count(orderline).
std::vector<std::string> CheckTpccConsistency(const TpccState& s);

// True when both databases answer the checks identically (doubles up to
// summation-order rounding).
bool SameState(const TpccState& a, const TpccState& b);

// Number of acknowledged NewOrder keys missing from `orders`, or an error.
oltap::Result<size_t> CountMissingAcks(
    oltap::Database* db, const std::vector<oltap::NewOrderAck>& acks);

// Row-by-row equality; doubles compare up to a relative 1e-9, because a
// parallel aggregate may sum in a different order than the serial one.
bool SameResult(const oltap::QueryResult& a, const oltap::QueryResult& b);

// FNV-1a over a canonical rendering of the result (doubles at 12
// significant digits).
uint64_t Digest(const oltap::QueryResult& r, uint64_t seed);

}  // namespace htapbench

#endif  // HTAPBENCH_CHECKS_H_
