#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/logging.h"
#include "workload/chbench.h"

namespace oltap {
namespace {

CHConfig SmallConfig() {
  CHConfig config;
  config.warehouses = 2;
  config.districts_per_warehouse = 3;
  config.customers_per_district = 20;
  config.items = 100;
  config.initial_orders_per_district = 10;
  return config;
}

class CHBenchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bench_ = std::make_unique<CHBenchmark>(&db_, SmallConfig());
    ASSERT_TRUE(bench_->CreateTables().ok());
    ASSERT_TRUE(bench_->Load().ok());
  }

  int64_t CountOf(const std::string& table) {
    auto r = db_.Execute("SELECT COUNT(*) FROM " + table);
    OLTAP_CHECK(r.ok()) << r.status().ToString();
    return r->rows[0][0].AsInt64();
  }

  Database db_;
  std::unique_ptr<CHBenchmark> bench_;
};

TEST_F(CHBenchTest, LoadCardinalities) {
  const CHConfig& c = bench_->config();
  EXPECT_EQ(CountOf("warehouse"), c.warehouses);
  EXPECT_EQ(CountOf("district"),
            c.warehouses * c.districts_per_warehouse);
  EXPECT_EQ(CountOf("customer"), c.warehouses * c.districts_per_warehouse *
                                     c.customers_per_district);
  EXPECT_EQ(CountOf("item"), c.items);
  EXPECT_EQ(CountOf("stock"), c.warehouses * c.items);
  EXPECT_EQ(CountOf("orders"), c.warehouses * c.districts_per_warehouse *
                                   c.initial_orders_per_district);
  EXPECT_GT(CountOf("orderline"), CountOf("orders") * 4);  // 5-15 lines each
  // ~30% undelivered.
  int64_t undelivered = CountOf("neworder");
  EXPECT_GT(undelivered, 0);
  EXPECT_LT(undelivered, CountOf("orders"));
}

TEST_F(CHBenchTest, NewOrderCreatesRows) {
  Rng rng(1);
  int64_t orders_before = CountOf("orders");
  int64_t neworders_before = CountOf("neworder");
  ASSERT_TRUE(bench_->NewOrder(&rng).ok());
  EXPECT_EQ(CountOf("orders"), orders_before + 1);
  EXPECT_EQ(CountOf("neworder"), neworders_before + 1);
}

TEST_F(CHBenchTest, PaymentMovesMoney) {
  Rng rng(2);
  auto before = db_.Execute("SELECT SUM(c_ytd_payment) FROM customer");
  int64_t history_before = CountOf("history");
  ASSERT_TRUE(bench_->Payment(&rng).ok());
  auto after = db_.Execute("SELECT SUM(c_ytd_payment) FROM customer");
  EXPECT_GT(after->rows[0][0].AsDouble(), before->rows[0][0].AsDouble());
  EXPECT_EQ(CountOf("history"), history_before + 1);
}

TEST_F(CHBenchTest, DeliveryConsumesNewOrders) {
  Rng rng(3);
  int64_t before = CountOf("neworder");
  ASSERT_GT(before, 0);
  // Delivery per warehouse: repeat enough times to consume several.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(bench_->Delivery(&rng).ok());
  }
  EXPECT_LT(CountOf("neworder"), before);
  // Delivered orders now carry a carrier id.
  auto r = db_.Execute(
      "SELECT COUNT(*) FROM orders WHERE o_carrier_id IS NOT NULL");
  EXPECT_GT(r->rows[0][0].AsInt64(), 0);
}

TEST_F(CHBenchTest, OrderStatusAndStockLevelAreReadOnly) {
  Rng rng(4);
  int64_t orders = CountOf("orders");
  int64_t stock = CountOf("stock");
  ASSERT_TRUE(bench_->OrderStatus(&rng).ok());
  ASSERT_TRUE(bench_->StockLevel(&rng).ok());
  EXPECT_EQ(CountOf("orders"), orders);
  EXPECT_EQ(CountOf("stock"), stock);
}

TEST_F(CHBenchTest, MixedRunExecutesAllTypes) {
  Rng rng(5);
  CHTxnStats stats;
  for (int i = 0; i < 300; ++i) {
    Status st = bench_->RunMixed(&rng, &stats);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_EQ(stats.total(), 300u);
  EXPECT_GT(stats.new_order, 0u);
  EXPECT_GT(stats.payment, 0u);
  EXPECT_GT(stats.order_status, 0u);
  EXPECT_GT(stats.delivery, 0u);
  EXPECT_GT(stats.stock_level, 0u);
}

TEST_F(CHBenchTest, AllAnalyticQueriesRun) {
  // Give the analytics something fresh to chew on.
  Rng rng(6);
  CHTxnStats stats;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(bench_->RunMixed(&rng, &stats).ok());
  }
  const auto& queries = CHBenchmark::Queries();
  ASSERT_EQ(queries.size(), 13u);
  for (size_t q = 0; q < queries.size(); ++q) {
    auto r = bench_->RunQuery(q);
    ASSERT_TRUE(r.ok()) << queries[q].name << ": " << r.status().ToString();
    EXPECT_FALSE(r->columns.empty()) << queries[q].name;
  }
}

TEST_F(CHBenchTest, ExplainAnalyzeOnAnalyticQuery) {
  const auto& queries = CHBenchmark::Queries();
  ASSERT_FALSE(queries.empty());
  // Q1 scans order_line and aggregates — a profile with real row counts.
  auto r = db_.Execute("EXPLAIN ANALYZE " + queries[0].sql);
  ASSERT_TRUE(r.ok()) << queries[0].name << ": " << r.status().ToString();
  ASSERT_EQ(r->columns.size(), 6u);
  EXPECT_EQ(r->columns[0], "operator");
  EXPECT_EQ(r->columns[1], "est_rows");
  EXPECT_EQ(r->columns[2], "rows");
  EXPECT_EQ(r->columns[3], "batches");
  EXPECT_EQ(r->columns[4], "time_ms");
  EXPECT_EQ(r->columns[5], "self_ms");
  ASSERT_GE(r->rows.size(), 2u);  // at least aggregate over scan
  int64_t max_rows = 0;
  double max_time_ms = 0.0;
  for (const Row& row : r->rows) {
    EXPECT_FALSE(row[0].AsString().empty());
    max_rows = std::max(max_rows, row[2].AsInt64());
    EXPECT_GE(row[3].AsInt64(), 0);  // batches
  }
  EXPECT_GT(max_rows, 0);  // the loaded order lines flowed through the scan
#ifndef OLTAP_OBS_DISABLED
  for (const Row& row : r->rows) {
    max_time_ms = std::max(max_time_ms, row[4].AsDouble());
  }
  EXPECT_GT(max_time_ms, 0.0);
#endif
}

TEST_F(CHBenchTest, QueriesStableAcrossMerge) {
  Rng rng(7);
  CHTxnStats stats;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(bench_->RunMixed(&rng, &stats).ok());
  }
  auto before = bench_->RunQuery(2);  // order-size distribution
  ASSERT_TRUE(before.ok());
  db_.MergeAll();
  auto after = bench_->RunQuery(2);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->rows.size(), after->rows.size());
  for (size_t i = 0; i < before->rows.size(); ++i) {
    EXPECT_EQ(before->rows[i][0].AsInt64(), after->rows[i][0].AsInt64());
    EXPECT_EQ(before->rows[i][1].AsInt64(), after->rows[i][1].AsInt64());
  }
}

TEST_F(CHBenchTest, ConcurrentMixedWorkloadKeepsInvariants) {
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::vector<CHTxnStats> stats(kThreads);
  std::atomic<int> hard_failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < 100; ++i) {
        Status st = bench_->RunMixed(&rng, &stats[t], /*max_retries=*/20);
        if (!st.ok() && !st.IsAborted()) hard_failures.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(hard_failures.load(), 0);

  // Invariant: every (w,d): d_next_o_id - 1 == number of orders in that
  // district (orders are issued densely per district).
  auto r = db_.Execute(
      "SELECT d_w_id, d_id, d_next_o_id FROM district ORDER BY d_w_id, d_id");
  ASSERT_TRUE(r.ok());
  for (const Row& drow : r->rows) {
    auto count = db_.Execute(
        "SELECT COUNT(*) FROM orders WHERE o_w_id = " +
        std::to_string(drow[0].AsInt64()) +
        " AND o_d_id = " + std::to_string(drow[1].AsInt64()));
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count->rows[0][0].AsInt64(), drow[2].AsInt64() - 1)
        << "district (" << drow[0].AsInt64() << "," << drow[1].AsInt64()
        << ")";
  }
  // Invariant: every order has exactly o_ol_cnt order lines.
  auto sums = db_.Execute(
      "SELECT SUM(o_ol_cnt) FROM orders");
  auto lines = db_.Execute("SELECT COUNT(*) FROM orderline");
  EXPECT_EQ(sums->rows[0][0].AsInt64(), lines->rows[0][0].AsInt64());
}

}  // namespace
}  // namespace oltap
