// Checks the morsel operators against references that share none of their
// code: a naive evaluator for randomized filter + join + GROUP BY queries,
// the storage layer's own visible-row iteration for row-path scans, and
// the feedback memo for cardinalities measured at DOP > 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "exec/operators.h"
#include "obs/metrics.h"
#include "opt/feedback.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "storage/table.h"

namespace oltap {
namespace {

// ---------------------------------------------------------------------
// Naive evaluator: the visible rows one at a time, a nested-loop join, a
// std::map GROUP BY and exact integer sums.
// ---------------------------------------------------------------------

using Cell = std::optional<int64_t>;  // nullopt = NULL

struct FactRow {
  int64_t k;
  Cell g;    // join key
  Cell grp;  // group column
  Cell v;    // value
};

struct DimRow {
  int64_t id;
  Cell g;  // join key, duplicated across rows
  int64_t w;
  std::string name;
};

Value CellValue(const Cell& c) {
  return c.has_value() ? Value::Int64(*c) : Value::Null(ValueType::kInt64);
}

// One joined input row of the evaluator (dim is null without a join).
struct JoinedRow {
  const FactRow* f;
  const DimRow* d;
};

// A WHERE conjunct as SQL text and as a predicate over a joined row. SQL
// comparisons with NULL are not true, so a NULL operand fails the row.
struct Cond {
  std::string sql;
  std::function<bool(const JoinedRow&)> eval;
};

// A GROUP BY key or aggregate argument as SQL text and its value.
struct Column {
  std::string sql;
  std::function<Value(const JoinedRow&)> eval;
};

struct Agg {
  enum class Fn { kCountStar, kCount, kSum, kMin, kMax };
  Fn fn;
  Column arg;  // unused for COUNT(*)

  std::string Sql() const {
    switch (fn) {
      case Fn::kCountStar:
        return "COUNT(*)";
      case Fn::kCount:
        return "COUNT(" + arg.sql + ")";
      case Fn::kSum:
        return "SUM(" + arg.sql + ")";
      case Fn::kMin:
        return "MIN(" + arg.sql + ")";
      case Fn::kMax:
        return "MAX(" + arg.sql + ")";
    }
    return "";
  }
};

struct AggState {
  int64_t rows = 0;
  int64_t count = 0;
  int64_t sum = 0;
  std::optional<Value> best;
};

struct Query {
  bool join = false;
  std::vector<Cond> conds;
  std::vector<Column> keys;
  std::vector<Agg> aggs;

  std::string Sql(const std::string& dim) const {
    std::string sql = "SELECT ";
    bool first = true;
    for (const Column& k : keys) {
      sql += (first ? "" : ", ") + k.sql;
      first = false;
    }
    for (const Agg& a : aggs) {
      sql += (first ? "" : ", ") + a.Sql();
      first = false;
    }
    sql += " FROM fact f";
    if (join) sql += " JOIN " + dim + " d ON d.g = f.g";
    for (size_t i = 0; i < conds.size(); ++i) {
      sql += (i == 0 ? " WHERE " : " AND ") + conds[i].sql;
    }
    if (!keys.empty()) {
      sql += " GROUP BY ";
      for (size_t i = 0; i < keys.size(); ++i) {
        sql += (i == 0 ? "" : ", ") + keys[i].sql;
      }
    }
    return sql;
  }
};

std::string RenderRow(const std::vector<Value>& row) {
  std::string line;
  for (const Value& v : row) line += v.ToString() + "|";
  return line;
}

// The result rows of `q`, rendered and sorted.
std::vector<std::string> Evaluate(const Query& q,
                                  const std::vector<FactRow>& fact,
                                  const std::vector<DimRow>& dim) {
  std::map<std::string, std::pair<std::vector<Value>, std::vector<AggState>>>
      groups;
  auto consume = [&](const JoinedRow& row) {
    for (const Cond& c : q.conds) {
      if (!c.eval(row)) return;
    }
    std::vector<Value> key;
    for (const Column& k : q.keys) key.push_back(k.eval(row));
    auto& group = groups[RenderRow(key)];
    group.first = key;
    group.second.resize(q.aggs.size());
    for (size_t a = 0; a < q.aggs.size(); ++a) {
      AggState& st = group.second[a];
      ++st.rows;
      if (q.aggs[a].fn == Agg::Fn::kCountStar) continue;
      Value v = q.aggs[a].arg.eval(row);
      if (v.is_null()) continue;
      ++st.count;
      if (v.type() == ValueType::kInt64) st.sum += v.AsInt64();
      bool better = !st.best.has_value() ||
                    (q.aggs[a].fn == Agg::Fn::kMin ? v.Compare(*st.best) < 0
                                                   : v.Compare(*st.best) > 0);
      if (better) st.best = v;
    }
  };
  for (const FactRow& f : fact) {
    if (!q.join) {
      consume({&f, nullptr});
      continue;
    }
    for (const DimRow& d : dim) {
      if (f.g.has_value() && d.g.has_value() && *f.g == *d.g) {
        consume({&f, &d});
      }
    }
  }
  // A global aggregate over no rows still has its one row.
  if (q.keys.empty() && groups.empty()) {
    groups[""].second.resize(q.aggs.size());
  }
  std::vector<std::string> out;
  for (const auto& [unused, group] : groups) {
    std::vector<Value> row = group.first;
    for (size_t a = 0; a < q.aggs.size(); ++a) {
      const AggState& st = group.second[a];
      switch (q.aggs[a].fn) {
        case Agg::Fn::kCountStar:
          row.push_back(Value::Int64(st.rows));
          break;
        case Agg::Fn::kCount:
          row.push_back(Value::Int64(st.count));
          break;
        case Agg::Fn::kSum:
          row.push_back(st.count == 0 ? Value::Null(ValueType::kInt64)
                                      : Value::Int64(st.sum));
          break;
        case Agg::Fn::kMin:
        case Agg::Fn::kMax:
          row.push_back(st.best.value_or(Value::Null()));
          break;
      }
    }
    out.push_back(RenderRow(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> RenderSorted(const QueryResult& r) {
  std::vector<std::string> out;
  for (const Row& row : r.rows) out.push_back(RenderRow(row));
  std::sort(out.begin(), out.end());
  return out;
}

// A random filter + (join) + GROUP BY query over fact f and dim d.
Query RandomQuery(std::mt19937* rng) {
  auto pick = [&](int n) {
    return static_cast<int>(std::uniform_int_distribution<int>(0, n - 1)(*rng));
  };
  Query q;
  q.join = pick(10) < 7;

  const Column f_grp{"f.grp", [](const JoinedRow& r) {
                       return CellValue(r.f->grp);
                     }};
  const Column f_v{"f.v",
                   [](const JoinedRow& r) { return CellValue(r.f->v); }};
  const Column f_g{"f.g",
                   [](const JoinedRow& r) { return CellValue(r.f->g); }};
  const Column d_w{"d.w",
                   [](const JoinedRow& r) { return Value::Int64(r.d->w); }};
  const Column d_name{"d.name", [](const JoinedRow& r) {
                        return Value::String(r.d->name);
                      }};

  // WHERE: pushable comparisons, a residual column-vs-column term, IS NULL.
  const int64_t v0 = pick(121) - 60;
  const int64_t k0 = pick(32000);
  const int64_t grp0 = pick(8);
  const int64_t w0 = pick(11);
  std::vector<Cond> conds = {
      {"f.v > " + std::to_string(v0),
       [v0](const JoinedRow& r) { return r.f->v.has_value() && *r.f->v > v0; }},
      {"f.k < " + std::to_string(k0),
       [k0](const JoinedRow& r) { return r.f->k < k0; }},
      {"f.grp = " + std::to_string(grp0),
       [grp0](const JoinedRow& r) {
         return r.f->grp.has_value() && *r.f->grp == grp0;
       }},
      {"f.v >= f.grp",
       [](const JoinedRow& r) {
         return r.f->v.has_value() && r.f->grp.has_value() &&
                *r.f->v >= *r.f->grp;
       }},
      {"f.v IS NULL",
       [](const JoinedRow& r) { return !r.f->v.has_value(); }},
  };
  if (q.join) {
    conds.push_back({"d.w < " + std::to_string(w0),
                     [w0](const JoinedRow& r) { return r.d->w < w0; }});
  }
  for (const Cond& c : conds) {
    // IS NULL leaves few rows: take it rarely.
    int odds = c.sql == "f.v IS NULL" ? 12 : 3;
    if (pick(odds) == 0) q.conds.push_back(c);
  }

  std::vector<Column> key_pool = {f_grp};
  if (q.join) {
    key_pool.push_back(d_name);
    key_pool.push_back(d_w);
    key_pool.push_back(f_g);
  }
  int nkeys = pick(3);
  for (int i = 0; i < nkeys; ++i) {
    const Column& c = key_pool[static_cast<size_t>(pick(
        static_cast<int>(key_pool.size())))];
    bool dup = false;
    for (const Column& k : q.keys) dup = dup || k.sql == c.sql;
    if (!dup) q.keys.push_back(c);
  }

  std::vector<Column> arg_pool = {f_v, f_grp};
  if (q.join) {
    arg_pool.push_back(d_w);
    arg_pool.push_back(d_name);
  }
  int naggs = 1 + pick(4);
  for (int i = 0; i < naggs; ++i) {
    Agg a;
    a.fn = static_cast<Agg::Fn>(pick(5));
    a.arg = arg_pool[static_cast<size_t>(pick(
        static_cast<int>(arg_pool.size())))];
    if (a.fn == Agg::Fn::kSum && a.arg.sql == "d.name") a.arg = f_v;
    q.aggs.push_back(a);
  }
  return q;
}

class ParallelExecOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_ = std::make_unique<ThreadPool>(3);
    db_.set_exec_pool(pool_.get());
    std::mt19937 rng(20261019);
    auto cell = [&](int lo, int hi, int null_pct) -> Cell {
      if (std::uniform_int_distribution<int>(0, 99)(rng) < null_pct) {
        return std::nullopt;
      }
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    auto sql = [](const Cell& c) {
      return c.has_value() ? std::to_string(*c) : std::string("NULL");
    };
    ASSERT_TRUE(db_.Execute("CREATE TABLE fact (k INT, g INT, grp INT, "
                            "v INT, PRIMARY KEY (k)) FORMAT COLUMN")
                    .ok());
    auto insert_fact = [&](int64_t begin, int64_t end) {
      auto txn = db_.txn_manager()->Begin();
      for (int64_t k = begin; k < end; ++k) {
        FactRow r{k, cell(0, 39, 5), cell(0, 6, 3), cell(-50, 50, 4)};
        ASSERT_TRUE(db_.ExecuteIn(txn.get(),
                                  "INSERT INTO fact VALUES (" +
                                      std::to_string(k) + ", " + sql(r.g) +
                                      ", " + sql(r.grp) + ", " + sql(r.v) +
                                      ")")
                        .ok());
        fact_.push_back(r);
      }
      ASSERT_TRUE(db_.txn_manager()->Commit(txn.get()).ok());
    };
    // Four main-fragment morsels, then a delta tail the merge never sees;
    // deletes hit both the main fragment and the tail.
    insert_fact(0, 30000);
    db_.MergeAll();
    insert_fact(30000, 30500);
    ASSERT_TRUE(
        db_.Execute("DELETE FROM fact WHERE k >= 1000 AND k < 1300").ok());
    ASSERT_TRUE(
        db_.Execute("DELETE FROM fact WHERE k >= 30100 AND k < 30150").ok());
    fact_.erase(std::remove_if(fact_.begin(), fact_.end(),
                               [](const FactRow& r) {
                                 return (r.k >= 1000 && r.k < 1300) ||
                                        (r.k >= 30100 && r.k < 30150);
                               }),
                fact_.end());

    // The same dimension rows in a row table and in a column table whose
    // rows all sit in the delta. Join keys repeat and include NULLs.
    ASSERT_TRUE(db_.Execute("CREATE TABLE dim_row (id INT, g INT, w INT, "
                            "name STRING, PRIMARY KEY (id)) FORMAT ROW")
                    .ok());
    ASSERT_TRUE(db_.Execute("CREATE TABLE dim_col (id INT, g INT, w INT, "
                            "name STRING, PRIMARY KEY (id)) FORMAT COLUMN")
                    .ok());
    for (int64_t id = 0; id < 60; ++id) {
      DimRow d{id, cell(0, 44, 5),
               std::uniform_int_distribution<int64_t>(0, 9)(rng),
               "n" + std::to_string(id % 7)};
      for (const char* table : {"dim_row", "dim_col"}) {
        ASSERT_TRUE(db_.Execute(std::string("INSERT INTO ") + table +
                                " VALUES (" + std::to_string(id) + ", " +
                                sql(d.g) + ", " + std::to_string(d.w) +
                                ", '" + d.name + "')")
                        .ok());
      }
      dim_.push_back(d);
    }
  }

  std::unique_ptr<ThreadPool> pool_;
  Database db_;
  std::vector<FactRow> fact_;
  std::vector<DimRow> dim_;
};

TEST_F(ParallelExecOracleTest, RandomQueriesMatchNaiveEvaluator) {
  std::mt19937 rng(7);
  size_t parallel_plans = 0;
  for (int i = 0; i < 40; ++i) {
    Query q = RandomQuery(&rng);
    std::vector<std::string> expected = Evaluate(q, fact_, dim_);
    for (const char* dim : {"dim_row", "dim_col"}) {
      std::string sql = q.Sql(dim);
      for (const char* dop : {"1", "4"}) {
        ASSERT_TRUE(db_.Execute(std::string("SET max_dop = ") + dop).ok());
        auto r = db_.Execute(sql);
        ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
        EXPECT_EQ(RenderSorted(*r), expected) << sql << " at dop " << dop;
        auto plan = db_.Execute("EXPLAIN " + sql);
        ASSERT_TRUE(plan.ok());
        for (const Row& row : plan->rows) {
          if (row[0].AsString().find("dop=4") != std::string::npos) {
            ++parallel_plans;
            break;
          }
        }
      }
      if (!q.join) break;  // the dimension table plays no part
    }
  }
  // The DOP-4 runs must actually have run on workers.
  EXPECT_GT(parallel_plans, 20u);
}

TEST_F(ParallelExecOracleTest, JoinOrderFlippedMatchesNaiveEvaluator) {
  // FROM order with the dimension first, optimizer off: the plan joins in
  // FROM order at DOP 1 whatever the knob says.
  std::mt19937 rng(11);
  ASSERT_TRUE(db_.Execute("SET optimizer = off").ok());
  for (int i = 0; i < 10; ++i) {
    Query q = RandomQuery(&rng);
    q.join = true;
    std::string sql = q.Sql("dim_col");
    const std::string fact_first = " FROM fact f JOIN dim_col d";
    size_t from = sql.find(fact_first);
    ASSERT_NE(from, std::string::npos) << sql;
    sql.replace(from, fact_first.size(), " FROM dim_col d JOIN fact f");
    auto r = db_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    EXPECT_EQ(RenderSorted(*r), Evaluate(q, fact_, dim_)) << sql;
  }
  ASSERT_TRUE(db_.Execute("SET optimizer = on").ok());
}

// ---------------------------------------------------------------------
// A pulled DOP-1 source streams; row-path scans return the storage
// layer's visible rows.
// ---------------------------------------------------------------------

TEST(ParallelExecStreamTest, PulledDopOneScanHoldsOneMorsel) {
  Database db;
  ThreadPool pool(3);
  db.set_exec_pool(&pool);
  ASSERT_TRUE(db.Execute("CREATE TABLE wide (k INT, v INT, "
                         "PRIMARY KEY (k)) FORMAT COLUMN")
                  .ok());
  auto txn = db.txn_manager()->Begin();
  for (int k = 0; k < 100000; ++k) {
    ASSERT_TRUE(db.ExecuteIn(txn.get(), "INSERT INTO wide VALUES (" +
                                            std::to_string(k) + ", " +
                                            std::to_string(k % 13) + ")")
                    .ok());
  }
  ASSERT_TRUE(db.txn_manager()->Commit(txn.get()).ok());
  db.MergeAll();
  ASSERT_TRUE(db.Execute("SET max_dop = 1").ok());

  obs::Counter* produced =
      obs::MetricsRegistry::Default()->GetCounter("exec.morsel.rows");
  const uint64_t before = produced->Value();
  auto r = db.Execute("EXPLAIN ANALYZE SELECT * FROM wide LIMIT 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  bool saw_scan = false;
  for (const Row& row : r->rows) {
    if (row[0].AsString().find("Scan(wide") == std::string::npos) continue;
    saw_scan = true;
    EXPECT_LE(row[2].AsInt64(), static_cast<int64_t>(kMorselRows))
        << row[0].AsString();
  }
  EXPECT_TRUE(saw_scan);
  // The scan produced one morsel, not the table.
  EXPECT_LE(produced->Value() - before, kMorselRows);

  auto one = db.Execute("SELECT * FROM wide LIMIT 1");
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->rows.size(), 1u);
  EXPECT_EQ(one->rows[0][0].AsInt64(), 0);
}

// Row i of the test tables: NULLs and repeats in both non-key columns.
Row RowPathRow(int64_t i) {
  return Row{Value::Int64(i),
             i % 11 == 0 ? Value::Null(ValueType::kInt64)
                         : Value::Int64(i % 9),
             Value::String("r" + std::to_string(i % 5))};
}

TEST(ParallelExecStreamTest, RowPathScansReturnVisibleRows) {
  Schema schema = SchemaBuilder()
                      .AddInt64("id", false)
                      .AddInt64("a")
                      .AddString("s")
                      .SetKey({"id"})
                      .Build();
  ThreadPool pool(3);
  for (TableFormat format : {TableFormat::kRow, TableFormat::kDual}) {
    Table table("t", schema, format);
    for (int64_t i = 0; i < 10000; ++i) {
      ASSERT_TRUE(table.InsertCommitted(RowPathRow(i), 1 + i % 3).ok());
    }
    // Predicate a < 8 (NULLs fail it), projection (s, id), read at ts 2:
    // rows committed at ts 3 are invisible.
    ExprPtr pred = Expr::Compare(CompareOp::kLt,
                                 Expr::Column(1, ValueType::kInt64),
                                 Expr::Constant(Value::Int64(8)));
    std::vector<std::string> expected;
    table.row_table()->ScanVisible(2, [&](const Row& row) {
      if (row[1].is_null() || row[1].AsInt64() >= 8) return;
      expected.push_back(row[2].ToString() + "|" + row[0].ToString());
    });
    ASSERT_GT(expected.size(), 2 * kDefaultBatchRows);
    for (ParallelContext ctx : {ParallelContext{}, ParallelContext{&pool, 4}}) {
      ScanOp scan(&table, 2, pred, {2, 0}, ScanOp::Path::kRow, ctx);
      std::vector<std::string> got;
      for (const Row& row : CollectRows(&scan)) {
        got.push_back(row[0].ToString() + "|" + row[1].ToString());
      }
      // Same rows in the same order as the row store yields them.
      EXPECT_EQ(got, expected) << TableFormatToString(format) << " dop "
                               << ctx.dop;
      EXPECT_EQ(scan.rows_scanned(), 10000u - 10000u / 3);
    }
  }
}

// ---------------------------------------------------------------------
// Cardinality feedback from scans that ran on workers.
// ---------------------------------------------------------------------

TEST(ParallelExecFeedbackTest, ParallelScansLeaveMeasuredRows) {
  Database db;
  ThreadPool pool(3);
  db.set_exec_pool(&pool);
  // No ANALYZE: `f.g = 1` is estimated at the default 10% of the table,
  // but every row has g = 1 — a q-error of 10.
  ASSERT_TRUE(db.Execute("CREATE TABLE fact (k INT, g INT, "
                         "PRIMARY KEY (k)) FORMAT COLUMN")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE dim (g INT, name STRING, "
                         "PRIMARY KEY (g)) FORMAT ROW")
                  .ok());
  auto txn = db.txn_manager()->Begin();
  for (int k = 0; k < 20000; ++k) {
    ASSERT_TRUE(db.ExecuteIn(txn.get(), "INSERT INTO fact VALUES (" +
                                            std::to_string(k) + ", 1)")
                    .ok());
  }
  ASSERT_TRUE(db.txn_manager()->Commit(txn.get()).ok());
  db.MergeAll();
  for (int g = 0; g < 5; ++g) {
    ASSERT_TRUE(db.Execute("INSERT INTO dim VALUES (" + std::to_string(g) +
                           ", 'n" + std::to_string(g) + "')")
                    .ok());
  }
  ASSERT_TRUE(db.Execute("SET max_dop = 4").ok());
  const std::string q =
      "SELECT d.name, f.k FROM dim d JOIN fact f ON d.g = f.g "
      "WHERE f.g = 1";
  auto plan = db.Execute("EXPLAIN " + q);
  ASSERT_TRUE(plan.ok());
  std::string text;
  for (const Row& row : plan->rows) text += row[0].AsString() + "\n";
  ASSERT_NE(text.find("ParallelScan(fact"), std::string::npos) << text;

  auto r = db.Execute(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 20000u);

  auto parsed = sql::Parse(q);
  ASSERT_TRUE(parsed.ok());
  auto entry = db.plan_feedback()->Lookup(
      sql::StatementFingerprint(*parsed->select));
  ASSERT_TRUE(entry.has_value());
  ASSERT_EQ(entry->scan_actual_rows.size(), 2u);
  EXPECT_EQ(entry->scan_actual_rows[1], 20000.0);  // fact, FROM index 1

  obs::Counter* replans =
      obs::MetricsRegistry::Default()->GetCounter("opt.feedback_replans");
  const uint64_t before = replans->Value();
  auto again = db.Execute(q);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rows.size(), 20000u);
  EXPECT_EQ(replans->Value(), before + 1);
}

}  // namespace
}  // namespace oltap
