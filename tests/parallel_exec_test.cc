#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "exec/parallel/morsel.h"
#include "obs/metrics.h"
#include "sched/workload_manager.h"
#include "sql/session.h"
#include "storage/row.h"
#include "workload/chbench.h"
#include "workload/driver.h"

namespace oltap {
namespace {

// ---------------------------------------------------------------------
// ThreadPool::ParallelForChunked (satellite: chunked-range dispatch).
// ---------------------------------------------------------------------

TEST(ParallelExecChunkedTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelForChunked(hits.size(), [&](size_t begin, size_t end) {
    ASSERT_LE(begin, end);
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelExecChunkedTest, ChunkCountBoundedByThreads) {
  ThreadPool pool(3);
  std::atomic<size_t> calls{0};
  pool.ParallelForChunked(100, [&](size_t, size_t) {
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  // One invocation per chunk, not per index.
  EXPECT_LE(calls.load(), 3u);
  EXPECT_GE(calls.load(), 1u);
}

TEST(ParallelExecChunkedTest, EmptyAndTinyRanges) {
  ThreadPool pool(4);
  std::atomic<size_t> calls{0};
  pool.ParallelForChunked(0, [&](size_t, size_t) {
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), 0u);
  std::atomic<int> sum{0};
  pool.ParallelForChunked(1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      sum.fetch_add(static_cast<int>(i) + 1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(sum.load(), 1);
}

TEST(ParallelExecChunkedTest, ParallelForStillPerIndex) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelExecWorkersTest, RunOnWorkersAllParticipate) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<size_t> ids;
  std::thread::id caller = std::this_thread::get_id();
  bool caller_was_worker0 = false;
  RunOnWorkers(&pool, 4, [&](size_t w) {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(w);
    if (w == 0 && std::this_thread::get_id() == caller) {
      caller_was_worker0 = true;
    }
  });
  EXPECT_EQ(ids.size(), 4u);
  EXPECT_TRUE(caller_was_worker0);

  // dop <= 1 or no pool: inline on the caller.
  std::atomic<size_t> solo{0};
  RunOnWorkers(nullptr, 8, [&](size_t w) {
    EXPECT_EQ(w, 0u);
    solo.fetch_add(1);
  });
  RunOnWorkers(&pool, 1, [&](size_t w) {
    EXPECT_EQ(w, 0u);
    solo.fetch_add(1);
  });
  EXPECT_EQ(solo.load(), 2u);
}

// ---------------------------------------------------------------------
// SQL-level determinism: parallel execution must be byte-identical to
// serial at any DOP.
// ---------------------------------------------------------------------

// One string per row; doubles print as hex floats, so equal renderings
// mean bit-identical values.
std::vector<std::string> Render(const QueryResult& r) {
  std::vector<std::string> out;
  out.reserve(r.rows.size());
  for (const Row& row : r.rows) {
    std::string line;
    for (const Value& v : row) {
      if (!v.is_null() && v.type() == ValueType::kDouble) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%a", v.AsDouble());
        line += buf;
      } else {
        line += v.ToString();
      }
      line += "|";
    }
    out.push_back(std::move(line));
  }
  return out;
}

// Runs `sql` serial (max_dop=1) and parallel (max_dop=dop) and expects
// byte-identical row streams.
void ExpectSameResult(Database* db, const std::string& sql, size_t dop) {
  ASSERT_TRUE(db->Execute("SET max_dop = 1").ok());
  auto serial = db->Execute(sql);
  ASSERT_TRUE(serial.ok()) << sql << ": " << serial.status().ToString();
  ASSERT_TRUE(db->Execute("SET max_dop = " + std::to_string(dop)).ok());
  auto parallel = db->Execute(sql);
  ASSERT_TRUE(parallel.ok()) << sql << ": " << parallel.status().ToString();
  EXPECT_EQ(Render(*serial), Render(*parallel)) << sql;
}

class ParallelExecSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_ = std::make_unique<ThreadPool>(3);
    db_.set_exec_pool(pool_.get());
    ASSERT_TRUE(db_.Execute("CREATE TABLE big (k INT, grp INT, v INT, "
                            "d DOUBLE, s STRING, PRIMARY KEY (k)) "
                            "FORMAT COLUMN")
                    .ok());
    // 6000 rows in one transaction: values with duplicates, negatives,
    // NULLs in both group and value columns.
    auto txn = db_.txn_manager()->Begin();
    for (int i = 0; i < 6000; ++i) {
      std::string grp =
          (i % 97 == 0) ? "NULL" : std::to_string(i % 7);
      std::string v = (i % 53 == 0) ? "NULL" : std::to_string(i % 101 - 50);
      std::string row = "(" + std::to_string(i) + ", " + grp + ", " + v +
                        ", " + std::to_string((i % 13) * 0.25) + ", 's" +
                        std::to_string(i % 11) + "')";
      ASSERT_TRUE(
          db_.ExecuteIn(txn.get(), "INSERT INTO big VALUES " + row).ok());
    }
    ASSERT_TRUE(db_.txn_manager()->Commit(txn.get()).ok());
    // Move the bulk into the main fragment, then leave a small tail in
    // the delta so every scan exercises the trailing delta slot too.
    db_.MergeAll();
    for (int i = 6000; i < 6100; ++i) {
      ASSERT_TRUE(db_.Execute("INSERT INTO big VALUES (" +
                              std::to_string(i) + ", 3, 7, 0.5, 'tail')")
                      .ok());
    }
    ASSERT_TRUE(db_.Execute("ANALYZE").ok());
  }

  std::unique_ptr<ThreadPool> pool_;
  Database db_;
};

TEST_F(ParallelExecSqlTest, ScanDeterministic) {
  ExpectSameResult(&db_, "SELECT k, v, s FROM big", 4);
  ExpectSameResult(&db_,
                   "SELECT k, d FROM big WHERE v > 10 AND k < 5500", 4);
  // Residual predicate the pushdown cannot absorb (column vs column).
  ExpectSameResult(&db_, "SELECT k FROM big WHERE v > grp", 4);
  // DOP larger than the pool still works (extra morsel claims queue).
  ExpectSameResult(&db_, "SELECT k, v FROM big WHERE v >= 0", 16);
}

TEST_F(ParallelExecSqlTest, ScanParallelPlanShape) {
  ASSERT_TRUE(db_.Execute("SET max_dop = 4").ok());
  auto plan = db_.Execute("EXPLAIN SELECT k FROM big WHERE v > 0");
  ASSERT_TRUE(plan.ok());
  std::string text;
  for (const Row& r : plan->rows) text += r[0].AsString() + "\n";
  EXPECT_NE(text.find("ParallelScan"), std::string::npos) << text;
  EXPECT_NE(text.find("dop=4"), std::string::npos) << text;

  // Serial knob: no parallel operators.
  ASSERT_TRUE(db_.Execute("SET max_dop = 1").ok());
  plan = db_.Execute("EXPLAIN SELECT k FROM big WHERE v > 0");
  ASSERT_TRUE(plan.ok());
  text.clear();
  for (const Row& r : plan->rows) text += r[0].AsString() + "\n";
  EXPECT_EQ(text.find("Parallel"), std::string::npos) << text;

  // Legacy planner path must stay serial even with the knob up.
  ASSERT_TRUE(db_.Execute("SET max_dop = 4").ok());
  ASSERT_TRUE(db_.Execute("SET optimizer = off").ok());
  plan = db_.Execute("EXPLAIN SELECT k FROM big WHERE v > 0");
  ASSERT_TRUE(plan.ok());
  text.clear();
  for (const Row& r : plan->rows) text += r[0].AsString() + "\n";
  EXPECT_EQ(text.find("Parallel"), std::string::npos) << text;
  ASSERT_TRUE(db_.Execute("SET optimizer = on").ok());
}

TEST_F(ParallelExecSqlTest, AggDeterministic) {
  // Mergeable: parallel pre-aggregation with slot-ordered merge.
  ExpectSameResult(&db_,
                   "SELECT grp, COUNT(*), SUM(v), MIN(v), MAX(s) FROM big "
                   "GROUP BY grp",
                   4);
  // Group order must match serial first-seen order (no ORDER BY).
  ExpectSameResult(&db_, "SELECT s, COUNT(v) FROM big GROUP BY s", 4);
  // Global aggregate, including over zero rows.
  ExpectSameResult(&db_, "SELECT COUNT(*), MIN(k), MAX(k) FROM big", 4);
  ExpectSameResult(&db_,
                   "SELECT COUNT(*), SUM(v) FROM big WHERE k < 0", 4);
  // Float sums merge per morsel and must still be bit-exact.
  ExpectSameResult(&db_, "SELECT grp, AVG(v), SUM(d) FROM big GROUP BY grp",
                   4);
  ExpectSameResult(&db_, "SELECT AVG(d) FROM big", 4);
}

TEST_F(ParallelExecSqlTest, AggPlanGating) {
  ASSERT_TRUE(db_.Execute("SET max_dop = 4").ok());
  auto plan = db_.Execute(
      "EXPLAIN SELECT grp, COUNT(*), SUM(v) FROM big GROUP BY grp");
  ASSERT_TRUE(plan.ok());
  std::string text;
  for (const Row& r : plan->rows) text += r[0].AsString() + "\n";
  EXPECT_NE(text.find("ParallelHashAggregate"), std::string::npos) << text;

  // AVG and SUM over doubles merge exactly too (exact summation): they
  // plan the parallel aggregate and stay byte-identical to DOP 1.
  for (const char* sql :
       {"SELECT grp, AVG(v) FROM big GROUP BY grp",
        "SELECT grp, SUM(d), AVG(d) FROM big GROUP BY grp",
        "SELECT SUM(d) FROM big"}) {
    plan = db_.Execute(std::string("EXPLAIN ") + sql);
    ASSERT_TRUE(plan.ok());
    text.clear();
    for (const Row& r : plan->rows) text += r[0].AsString() + "\n";
    EXPECT_NE(text.find("ParallelHashAggregate"), std::string::npos) << text;
    EXPECT_NE(text.find("ParallelScan"), std::string::npos) << text;
    ExpectSameResult(&db_, sql, 4);
    ASSERT_TRUE(db_.Execute("SET max_dop = 4").ok());
  }
}

TEST_F(ParallelExecSqlTest, JoinDeterministicWithDuplicateBuildKeys) {
  // Build side with duplicate keys: every s value repeats, so the join
  // fan-out exercises duplicate-match emission order.
  ASSERT_TRUE(db_.Execute("CREATE TABLE tags (s STRING, w INT, "
                          "PRIMARY KEY (s)) FORMAT ROW")
                  .ok());
  for (int i = 0; i < 11; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO tags VALUES ('s" +
                            std::to_string(i) + "', " +
                            std::to_string(i * 10) + ")")
                    .ok());
  }
  ASSERT_TRUE(db_.Execute("ANALYZE").ok());
  ExpectSameResult(&db_,
                   "SELECT t.w, b.k FROM tags t JOIN big b ON t.s = b.s "
                   "WHERE b.k < 300",
                   4);
  ExpectSameResult(&db_,
                   "SELECT t.s, COUNT(*), SUM(b.v) FROM tags t "
                   "JOIN big b ON t.s = b.s GROUP BY t.s",
                   4);
}

TEST_F(ParallelExecSqlTest, OrderByLimitDeterministic) {
  ExpectSameResult(&db_,
                   "SELECT grp, COUNT(*) AS n FROM big GROUP BY grp "
                   "ORDER BY n DESC, grp LIMIT 5",
                   4);
  ExpectSameResult(&db_, "SELECT k, v FROM big ORDER BY v DESC LIMIT 20",
                   4);
  ExpectSameResult(&db_, "SELECT DISTINCT s FROM big", 4);
}

TEST_F(ParallelExecSqlTest, ExplainAnalyzeReportsDopAndRows) {
  ASSERT_TRUE(db_.Execute("SET max_dop = 4").ok());
  auto r = db_.Execute("EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM big "
                       "GROUP BY grp");
  ASSERT_TRUE(r.ok());
  bool saw_parallel_scan = false;
  for (const Row& row : r->rows) {
    std::string op = row[0].AsString();
    if (op.find("ParallelScan") != std::string::npos) {
      saw_parallel_scan = true;
      EXPECT_NE(op.find("dop=4"), std::string::npos) << op;
      // Worker-produced rows are accounted even though the operator is
      // driven (never pulled through NextBatchTimed).
      EXPECT_GT(row[2].AsInt64(), 0) << op;
    }
  }
  EXPECT_TRUE(saw_parallel_scan);
}

std::string ExplainText(Database* db, const std::string& sql) {
  auto plan = db->Execute("EXPLAIN " + sql);
  EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
  std::string text;
  if (!plan.ok()) return text;
  for (const Row& r : plan->rows) text += r[0].AsString() + "\n";
  return text;
}

TEST_F(ParallelExecSqlTest, ScanPrunesToReferencedColumns) {
  for (const char* dop : {"1", "4"}) {
    ASSERT_TRUE(db_.Execute(std::string("SET max_dop = ") + dop).ok());
    // v is only a pushed-down predicate column: the scan filters on it
    // but does not output it.
    std::string text = ExplainText(
        &db_, "SELECT grp, SUM(d) FROM big WHERE v > 0 GROUP BY grp");
    EXPECT_NE(text.find("cols=[grp,d]"), std::string::npos) << text;
    // A residual (column vs column) reads its columns inside the scan.
    text = ExplainText(&db_, "SELECT k FROM big WHERE v > grp");
    EXPECT_NE(text.find("cols=[k]"), std::string::npos) << text;
    // Full width: no cols= suffix.
    text = ExplainText(&db_, "SELECT * FROM big WHERE k < 10");
    EXPECT_EQ(text.find("cols="), std::string::npos) << text;
    // COUNT(*) alone still scans one column and counts every row.
    text = ExplainText(&db_, "SELECT COUNT(*) FROM big");
    EXPECT_NE(text.find("cols=[k]"), std::string::npos) << text;
    auto count = db_.Execute("SELECT COUNT(*) FROM big");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count->rows[0][0].AsInt64(), 6100);
    count = db_.Execute("SELECT COUNT(*) FROM big WHERE v > 0");
    ASSERT_TRUE(count.ok());
    EXPECT_GT(count->rows[0][0].AsInt64(), 0);
  }
  // The legacy planner keeps full-width scans.
  ASSERT_TRUE(db_.Execute("SET optimizer = off").ok());
  EXPECT_EQ(ExplainText(&db_, "SELECT grp, SUM(d) FROM big GROUP BY grp")
                .find("cols="),
            std::string::npos);
  ASSERT_TRUE(db_.Execute("SET optimizer = on").ok());
}

// Runs `sql` with the optimizer (pruned, parallel at `dop`) and without it
// (full-width serial scans) and expects bit-identical row streams.
void ExpectSameAsOptimizerOff(Database* db, const std::string& sql,
                              size_t dop) {
  ASSERT_TRUE(db->Execute("SET max_dop = " + std::to_string(dop)).ok());
  auto optimized = db->Execute(sql);
  ASSERT_TRUE(optimized.ok()) << sql << ": " << optimized.status().ToString();
  ASSERT_TRUE(db->Execute("SET optimizer = off").ok());
  auto legacy = db->Execute(sql);
  ASSERT_TRUE(db->Execute("SET optimizer = on").ok());
  ASSERT_TRUE(legacy.ok()) << sql << ": " << legacy.status().ToString();
  EXPECT_EQ(Render(*optimized), Render(*legacy)) << sql;
}

TEST_F(ParallelExecSqlTest, PrunedResultsMatchOptimizerOff) {
  for (size_t dop : {1, 4}) {
    ExpectSameAsOptimizerOff(&db_, "SELECT COUNT(*) FROM big", dop);
    ExpectSameAsOptimizerOff(&db_, "SELECT k, s FROM big WHERE v > grp",
                             dop);
    ExpectSameAsOptimizerOff(
        &db_,
        "SELECT grp, COUNT(*), SUM(v), AVG(d), SUM(d), MIN(s), MAX(d) "
        "FROM big WHERE k >= 100 GROUP BY grp ORDER BY grp",
        dop);
    ExpectSameAsOptimizerOff(
        &db_,
        "SELECT s, SUM(d) FROM big GROUP BY s HAVING AVG(v) > 0 "
        "ORDER BY s",
        dop);
    ExpectSameAsOptimizerOff(&db_, "SELECT * FROM big WHERE k < 50", dop);
  }
}

TEST_F(ParallelExecSqlTest, ExplainAnalyzeSelfTimesAddUp) {
  ASSERT_TRUE(db_.Execute("SET max_dop = 4").ok());
  auto r = db_.Execute(
      "EXPLAIN ANALYZE SELECT grp, COUNT(*), SUM(d) FROM big "
      "WHERE v > -40 GROUP BY grp ORDER BY grp");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->columns.back(), "self_ms");
  double self_sum = 0;
  bool saw_fused_agg = false;
  for (const Row& row : r->rows) {
    double total = row[4].AsDouble();
    double self = row[5].AsDouble();
    EXPECT_GE(self, 0.0) << row[0].AsString();
    EXPECT_LE(self, total + 1e-9) << row[0].AsString();
    self_sum += self;
    if (row[0].AsString().find("ParallelHashAggregate") !=
        std::string::npos) {
      saw_fused_agg = true;
    }
  }
  EXPECT_TRUE(saw_fused_agg);
  // The root's inclusive time is the whole query; self times partition it.
  EXPECT_NEAR(self_sum, r->rows[0][4].AsDouble(),
              1e-6 + 1e-6 * r->rows[0][4].AsDouble());
}

TEST_F(ParallelExecSqlTest, MorselCountersAdvance) {
  auto* reg = obs::MetricsRegistry::Default();
  uint64_t q0 = reg->GetCounter("exec.morsel.parallel_queries")->Value();
  uint64_t d0 = reg->GetCounter("exec.morsel.dispatched")->Value();
  uint64_t r0 = reg->GetCounter("exec.morsel.rows")->Value();
  ASSERT_TRUE(db_.Execute("SET max_dop = 4").ok());
  ASSERT_TRUE(db_.Execute("SELECT COUNT(*) FROM big").ok());
  EXPECT_GT(reg->GetCounter("exec.morsel.parallel_queries")->Value(), q0);
  EXPECT_GT(reg->GetCounter("exec.morsel.dispatched")->Value(), d0);
  EXPECT_GT(reg->GetCounter("exec.morsel.rows")->Value(), r0);
}

// ---------------------------------------------------------------------
// Admission-governed DOP.
// ---------------------------------------------------------------------

TEST_F(ParallelExecSqlTest, GrantCapsDop) {
  ASSERT_TRUE(db_.Execute("SET max_dop = 4").ok());

  QueryGrant serial_grant;
  serial_grant.max_dop = 1;
  auto plan = db_.Execute("EXPLAIN SELECT k FROM big WHERE v > 0",
                          serial_grant);
  ASSERT_TRUE(plan.ok());
  std::string text;
  for (const Row& r : plan->rows) text += r[0].AsString() + "\n";
  EXPECT_EQ(text.find("Parallel"), std::string::npos) << text;

  QueryGrant capped;
  capped.max_dop = 2;
  uint64_t limited0 = obs::MetricsRegistry::Default()
                          ->GetCounter("exec.morsel.dop_limited")
                          ->Value();
  plan = db_.Execute("EXPLAIN SELECT k FROM big WHERE v > 0", capped);
  ASSERT_TRUE(plan.ok());
  text.clear();
  for (const Row& r : plan->rows) text += r[0].AsString() + "\n";
  EXPECT_NE(text.find("dop=2"), std::string::npos) << text;
  EXPECT_GT(obs::MetricsRegistry::Default()
                ->GetCounter("exec.morsel.dop_limited")
                ->Value(),
            limited0);

  // An uncapped grant leaves the session knob in charge.
  QueryGrant open;
  auto result = db_.Execute("SELECT COUNT(*) FROM big", open);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].AsInt64(), 6100);
}

TEST(ParallelExecGrantTest, WorkloadManagerStampsDop) {
  WorkloadManager::Options opts;
  opts.num_workers = 1;
  opts.max_parallel_dop = 6;
  opts.degraded_dop = 1;
  opts.olap_degrade_threshold = 1;  // degrade when >= 1 already queued
  WorkloadManager wm(opts);

  std::mutex mu;
  std::vector<QueryGrant> grants;
  auto record = [&](const CancellationToken&, const QueryGrant& g) {
    std::lock_guard<std::mutex> lock(mu);
    grants.push_back(g);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return Status::OK();
  };
  // First submission occupies the worker; the next ones queue deep
  // enough to be admitted degraded.
  std::vector<WorkloadManager::Submission> subs;
  for (int i = 0; i < 4; ++i) {
    subs.push_back(wm.SubmitBudgeted(QueryClass::kOlap,
                                     WorkloadManager::QuerySpec{}, record));
  }
  for (auto& s : subs) ASSERT_TRUE(s.done.get().ok());
  wm.Drain();

  ASSERT_EQ(grants.size(), 4u);
  size_t degraded = 0;
  for (const QueryGrant& g : grants) {
    if (g.degraded) {
      ++degraded;
      EXPECT_EQ(g.max_dop, 1u);
    } else {
      EXPECT_EQ(g.max_dop, 6u);
    }
  }
  EXPECT_GE(degraded, 1u);
}

// ---------------------------------------------------------------------
// CH analytic suite: byte-identical parallel vs serial, quiesced and
// under concurrent TPC-C DML.
// ---------------------------------------------------------------------

CHConfig ParallelCHConfig() {
  CHConfig config;
  config.warehouses = 2;
  config.districts_per_warehouse = 5;
  config.customers_per_district = 40;
  config.items = 200;
  config.initial_orders_per_district = 50;
  // Disjoint write sets for the concurrent test.
  config.remote_item_prob = 0.0;
  config.remote_payment_prob = 0.0;
  return config;
}

TEST(ParallelExecCHTest, AllQueriesDeterministicQuiesced) {
  Database db;
  CHBenchmark bench(&db, ParallelCHConfig());
  ASSERT_TRUE(bench.CreateTables().ok());
  ASSERT_TRUE(bench.Load().ok());
  db.MergeAll();
  ASSERT_TRUE(db.Execute("ANALYZE").ok());

  ThreadPool pool(3);
  db.set_exec_pool(&pool);

  // The comparison is only meaningful if the suite actually plans
  // parallel operators at this scale.
  ASSERT_TRUE(db.Execute("SET max_dop = 4").ok());
  bool any_parallel_plan = false;
  for (const auto& aq : CHBenchmark::Queries()) {
    auto plan = db.Execute("EXPLAIN " + aq.sql);
    ASSERT_TRUE(plan.ok()) << aq.name;
    for (const Row& r : plan->rows) {
      if (r[0].AsString().find("Parallel") != std::string::npos) {
        any_parallel_plan = true;
      }
    }
  }
  EXPECT_TRUE(any_parallel_plan);

  const size_t n = CHBenchmark::Queries().size();
  for (size_t q = 0; q < n; ++q) {
    ASSERT_TRUE(db.Execute("SET max_dop = 1").ok());
    auto serial = bench.RunQuery(q);
    ASSERT_TRUE(serial.ok()) << CHBenchmark::Queries()[q].name;
    ASSERT_TRUE(db.Execute("SET max_dop = 4").ok());
    auto parallel = bench.RunQuery(q);
    ASSERT_TRUE(parallel.ok()) << CHBenchmark::Queries()[q].name;
    EXPECT_EQ(Render(*serial), Render(*parallel))
        << CHBenchmark::Queries()[q].name;
  }
}

TEST(ParallelExecCHTest, PrunedPlansMatchOptimizerOff) {
  Database db;
  CHBenchmark bench(&db, ParallelCHConfig());
  ASSERT_TRUE(bench.CreateTables().ok());
  ASSERT_TRUE(bench.Load().ok());
  db.MergeAll();
  ASSERT_TRUE(db.Execute("ANALYZE").ok());
  ThreadPool pool(3);
  db.set_exec_pool(&pool);

  for (const auto& aq : CHBenchmark::Queries()) {
    ExpectSameAsOptimizerOff(&db, aq.sql, 4);
    ExpectSameAsOptimizerOff(&db, aq.sql, 1);
    // Every optimized scan reads a strict subset of its table's columns.
    ASSERT_TRUE(db.Execute("SET max_dop = 4").ok());
    std::string text = ExplainText(&db, aq.sql);
    size_t pos = 0;
    while ((pos = text.find("Scan(", pos)) != std::string::npos) {
      size_t eol = text.find('\n', pos);
      EXPECT_NE(text.substr(pos, eol - pos).find("cols=["), std::string::npos)
          << aq.name << "\n" << text;
      pos = eol;
    }
  }
  // The aggregates over order lines (A1, A2, A4, A5, A6, A9) aggregate in
  // parallel, the AVG and float-SUM ones included.
  for (size_t q : {0, 1, 3, 4, 5, 8}) {
    const auto& aq = CHBenchmark::Queries()[q];
    EXPECT_NE(ExplainText(&db, aq.sql).find("ParallelHashAggregate"),
              std::string::npos)
        << aq.name;
  }
  // Joins drop the key columns nothing above them reads.
  for (size_t q : {1, 3, 8}) {
    const auto& aq = CHBenchmark::Queries()[q];
    std::string text = ExplainText(&db, aq.sql);
    size_t join = text.find("HashJoin(");
    ASSERT_NE(join, std::string::npos) << aq.name << "\n" << text;
    EXPECT_NE(text.substr(join, text.find('\n', join) - join).find("cols=[$"),
              std::string::npos)
        << aq.name << "\n" << text;
  }
}

TEST(ParallelExecCHTest, DeterministicUnderConcurrentTpcc) {
  Database db;
  CHBenchmark bench(&db, ParallelCHConfig());
  ASSERT_TRUE(bench.CreateTables().ok());
  ASSERT_TRUE(bench.Load().ok());
  db.MergeAll();
  ASSERT_TRUE(db.Execute("ANALYZE").ok());

  ThreadPool pool(3);
  db.set_exec_pool(&pool);

  // Concurrent TPC-C DML through the full driver (merge daemon included),
  // long enough to overlap every snapshot pair below.
  DriverOptions dopts;
  dopts.oltp_workers = 3;
  dopts.olap_workers = 0;
  dopts.wm_workers = 3;
  dopts.duration_ms = 4000;
  dopts.bind_home_warehouse = true;
  dopts.seed = 11;
  ConcurrentDriver driver(&bench, dopts);
  DriverReport report;
  std::thread churn([&] { report = driver.Run(); });

  // Same-snapshot pairs: both executions run inside one transaction, so
  // they see the same MVCC snapshot while the driver commits around them.
  // The session DOP knob is toggled between the two runs.
  // One full pass over the suite is guaranteed even when sanitizers slow
  // execution below the driver's pace; extra pairs fill the time window.
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(3000);
  const size_t n = CHBenchmark::Queries().size();
  size_t q = 0;
  size_t pairs = 0;
  while (pairs < n || std::chrono::steady_clock::now() < deadline) {
    const std::string& sql = CHBenchmark::Queries()[q].sql;
    auto txn = db.txn_manager()->Begin();
    ASSERT_TRUE(db.Execute("SET max_dop = 1").ok());
    auto serial = db.ExecuteIn(txn.get(), sql);
    ASSERT_TRUE(db.Execute("SET max_dop = 4").ok());
    auto parallel = db.ExecuteIn(txn.get(), sql);
    ASSERT_TRUE(db.txn_manager()->Commit(txn.get()).ok());
    ASSERT_TRUE(serial.ok()) << CHBenchmark::Queries()[q].name;
    ASSERT_TRUE(parallel.ok()) << CHBenchmark::Queries()[q].name;
    ASSERT_EQ(Render(*serial), Render(*parallel))
        << CHBenchmark::Queries()[q].name << " under concurrent DML";
    q = (q + 1) % n;
    ++pairs;
  }
  churn.join();
  EXPECT_GE(pairs, n);
  EXPECT_GT(report.txns.total(), 0u);
}

}  // namespace
}  // namespace oltap
