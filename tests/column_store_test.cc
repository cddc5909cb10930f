#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/column_store.h"

namespace oltap {
namespace {

Schema KeyedSchema() {
  return SchemaBuilder()
      .AddInt64("id", false)
      .AddString("name")
      .AddDouble("score")
      .SetKey({"id"})
      .Build();
}

Row MakeRow(int64_t id, const std::string& name, double score) {
  return Row{Value::Int64(id), Value::String(name), Value::Double(score)};
}

std::string KeyOf(int64_t id) {
  Schema s = KeyedSchema();
  return EncodeKey(s, MakeRow(id, "", 0));
}

TEST(ColumnTableTest, InsertLookupDelete) {
  ColumnTable table(KeyedSchema());
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, "a", 1.5), 10).ok());
  Row out;
  EXPECT_FALSE(table.Lookup(KeyOf(1), 9, &out));  // before insert
  ASSERT_TRUE(table.Lookup(KeyOf(1), 10, &out));
  EXPECT_EQ(out[1].AsString(), "a");

  ASSERT_TRUE(table.DeleteCommitted(KeyOf(1), 20).ok());
  EXPECT_TRUE(table.Lookup(KeyOf(1), 15, &out));   // still visible at 15
  EXPECT_FALSE(table.Lookup(KeyOf(1), 20, &out));  // gone at 20
}

TEST(ColumnTableTest, DuplicateInsertRejected) {
  ColumnTable table(KeyedSchema());
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, "a", 1), 10).ok());
  Status st = table.InsertCommitted(MakeRow(1, "b", 2), 20);
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

TEST(ColumnTableTest, ReinsertAfterDelete) {
  ColumnTable table(KeyedSchema());
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, "a", 1), 10).ok());
  ASSERT_TRUE(table.DeleteCommitted(KeyOf(1), 20).ok());
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, "a2", 3), 30).ok());
  Row out;
  ASSERT_TRUE(table.Lookup(KeyOf(1), 30, &out));
  EXPECT_EQ(out[1].AsString(), "a2");
  // The old version remains visible at its timestamps.
  ASSERT_TRUE(table.Lookup(KeyOf(1), 15, &out));
  EXPECT_EQ(out[1].AsString(), "a");
  EXPECT_FALSE(table.Lookup(KeyOf(1), 25, &out));
}

TEST(ColumnTableTest, UpdateCreatesNewVersion) {
  ColumnTable table(KeyedSchema());
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, "v1", 1), 10).ok());
  ASSERT_TRUE(table.UpdateCommitted(KeyOf(1), MakeRow(1, "v2", 2), 20).ok());
  Row out;
  ASSERT_TRUE(table.Lookup(KeyOf(1), 15, &out));
  EXPECT_EQ(out[1].AsString(), "v1");
  ASSERT_TRUE(table.Lookup(KeyOf(1), 20, &out));
  EXPECT_EQ(out[1].AsString(), "v2");
}

TEST(ColumnTableTest, LastWriteTs) {
  ColumnTable table(KeyedSchema());
  EXPECT_EQ(table.LastWriteTs(KeyOf(1)), 0u);
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, "a", 1), 10).ok());
  EXPECT_EQ(table.LastWriteTs(KeyOf(1)), 10u);
  ASSERT_TRUE(table.UpdateCommitted(KeyOf(1), MakeRow(1, "b", 2), 25).ok());
  EXPECT_EQ(table.LastWriteTs(KeyOf(1)), 25u);
}

TEST(ColumnTableTest, BulkLoadToMainThenLookup) {
  ColumnTable table(KeyedSchema());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) {
    rows.push_back(MakeRow(i, "n" + std::to_string(i), i * 0.5));
  }
  ASSERT_TRUE(table.BulkLoadToMain(rows, 5).ok());
  EXPECT_EQ(table.main_size(), 100u);
  EXPECT_EQ(table.delta_size(), 0u);
  Row out;
  ASSERT_TRUE(table.Lookup(KeyOf(42), 5, &out));
  EXPECT_EQ(out[1].AsString(), "n42");
  EXPECT_FALSE(table.Lookup(KeyOf(42), 4, &out));  // before build_ts
}

TEST(ColumnTableTest, BulkLoadRequiresEmptyTable) {
  ColumnTable table(KeyedSchema());
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, "a", 1), 1).ok());
  Status st = table.BulkLoadToMain({MakeRow(2, "b", 2)}, 2);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(ColumnTableTest, SnapshotSeesConsistentState) {
  ColumnTable table(KeyedSchema());
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, "a", 1), 10).ok());
  ColumnTable::Snapshot snap = table.GetSnapshot(10);
  // A later delete must not affect the snapshot's view at ts 10.
  ASSERT_TRUE(table.DeleteCommitted(KeyOf(1), 20).ok());
  size_t visible = 0;
  snap.delta->ForEachVisible(snap.read_ts,
                             [&](uint32_t, const Row&) { ++visible; });
  EXPECT_EQ(visible, 1u);
}

TEST(ColumnTableTest, UnkeyedTableAppendsOnly) {
  Schema schema = SchemaBuilder().AddInt64("x").Build();
  ColumnTable table(schema);
  ASSERT_TRUE(table.InsertCommitted(Row{Value::Int64(1)}, 1).ok());
  ASSERT_TRUE(table.InsertCommitted(Row{Value::Int64(1)}, 2).ok());
  EXPECT_EQ(table.delta_size(), 2u);
  EXPECT_EQ(table.DeleteCommitted("k", 3).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ColumnTableTest, ArityMismatchRejected) {
  ColumnTable table(KeyedSchema());
  Status st = table.InsertCommitted(Row{Value::Int64(1)}, 1);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// Shadow model of a keyed column table: every version of every key with
// its [insert, delete) timestamps, plus each key's last write. A merge at
// horizon h drops the versions deleted before h; a key left with none is
// forgotten, as if never written.
class ShadowTable {
 public:
  struct Version {
    Timestamp ins;
    Timestamp del;
    std::string name;
  };

  bool LiveAt(int64_t id, Timestamp ts) const {
    const Version* v = VisibleAt(id, ts);
    return v != nullptr;
  }
  const Version* VisibleAt(int64_t id, Timestamp ts) const {
    auto it = versions_.find(id);
    if (it == versions_.end()) return nullptr;
    for (const Version& v : it->second) {
      if (v.ins <= ts && ts < v.del) return &v;
    }
    return nullptr;
  }
  Timestamp LastWriteTs(int64_t id) const {
    auto it = last_write_.find(id);
    return it == last_write_.end() ? 0 : it->second;
  }
  bool empty() const { return versions_.empty(); }

  void Insert(int64_t id, const std::string& name, Timestamp ts) {
    versions_[id].push_back(Version{ts, kMaxTimestamp, name});
    last_write_[id] = ts;
  }
  void Delete(int64_t id, Timestamp ts) {
    versions_[id].back().del = ts;
    last_write_[id] = ts;
  }
  void Update(int64_t id, const std::string& name, Timestamp ts) {
    versions_[id].back().del = ts;
    Insert(id, name, ts);
  }
  void Merge(Timestamp horizon) {
    for (auto it = versions_.begin(); it != versions_.end();) {
      auto& vs = it->second;
      vs.erase(std::remove_if(vs.begin(), vs.end(),
                              [&](const Version& v) { return v.del < horizon; }),
               vs.end());
      if (vs.empty()) {
        last_write_.erase(it->first);
        it = versions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  void Clear() {
    versions_.clear();
    last_write_.clear();
  }

 private:
  std::map<int64_t, std::vector<Version>> versions_;
  std::map<int64_t, Timestamp> last_write_;
};

TEST(ColumnTableTest, RandomOpsMatchShadowModel) {
  constexpr int64_t kKeys = 48;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ColumnTable table(KeyedSchema());
    ShadowTable model;
    Timestamp now = 1;
    Timestamp horizon = 0;
    std::vector<Timestamp> snapshots;  // retained read timestamps
    int writes = 0;

    auto check = [&](const std::string& step) {
      std::vector<Timestamp> reads = snapshots;
      reads.push_back(now);
      for (int64_t id = 0; id < kKeys; ++id) {
        ASSERT_EQ(table.LastWriteTs(KeyOf(id)), model.LastWriteTs(id))
            << step << " id " << id;
        for (Timestamp ts : reads) {
          Row out;
          const ShadowTable::Version* want = model.VisibleAt(id, ts);
          bool found = table.Lookup(KeyOf(id), ts, &out);
          ASSERT_EQ(found, want != nullptr)
              << step << " id " << id << " at " << ts;
          if (found) {
            ASSERT_EQ(out[0].AsInt64(), id);
            ASSERT_EQ(out[1].AsString(), want->name)
                << step << " id " << id << " at " << ts;
          }
        }
      }
    };

    for (int step = 0; step < 600; ++step) {
      ++now;
      int64_t id = static_cast<int64_t>(rng.Uniform(kKeys));
      std::string name = "v" + std::to_string(++writes);
      uint64_t op = rng.Uniform(100);
      std::string what;
      if (op < 35) {
        what = "insert";
        Status st = table.InsertCommitted(MakeRow(id, name, 1.0), now);
        if (model.LiveAt(id, now)) {
          ASSERT_EQ(st.code(), StatusCode::kAlreadyExists) << step;
        } else {
          ASSERT_TRUE(st.ok()) << step << " " << st.ToString();
          model.Insert(id, name, now);
        }
      } else if (op < 60) {
        what = "update";
        Status st = table.UpdateCommitted(KeyOf(id), MakeRow(id, name, 2.0),
                                          now);
        ASSERT_EQ(st.ok(), model.LiveAt(id, now)) << step;
        if (st.ok()) model.Update(id, name, now);
      } else if (op < 85) {
        what = "delete";
        Status st = table.DeleteCommitted(KeyOf(id), now);
        ASSERT_EQ(st.ok(), model.LiveAt(id, now)) << step;
        if (st.ok()) model.Delete(id, now);
      } else if (op < 93) {
        // Merge at a horizon anywhere from the last one to now; snapshots
        // below it are released.
        what = "merge";
        horizon = horizon + rng.Uniform(now - horizon + 1);
        table.MergeDelta(now, horizon);
        model.Merge(horizon);
        snapshots.erase(std::remove_if(snapshots.begin(), snapshots.end(),
                                       [&](Timestamp t) { return t < horizon; }),
                        snapshots.end());
      } else if (op < 97) {
        what = "snapshot";
        if (snapshots.size() < 6) snapshots.push_back(now);
      } else {
        // Empty the table (delete every live key, merge past the deletes),
        // then bulk load it, sometimes with a duplicate key that must be
        // rejected with the table left empty.
        what = "bulk load";
        for (int64_t k = 0; k < kKeys; ++k) {
          if (model.LiveAt(k, now)) {
            ASSERT_TRUE(table.DeleteCommitted(KeyOf(k), now).ok());
            model.Delete(k, now);
          }
        }
        ++now;
        horizon = now;
        snapshots.clear();
        table.MergeDelta(now, horizon);
        model.Merge(horizon);
        ASSERT_TRUE(model.empty());
        ASSERT_EQ(table.main_size(), 0u);
        ASSERT_EQ(table.delta_size(), 0u);
        ++now;
        std::vector<Row> rows;
        for (int64_t k = 0; k < kKeys; k += 1 + rng.Uniform(3)) {
          rows.push_back(MakeRow(k, "bulk" + std::to_string(k), 3.0));
        }
        if (rng.Bernoulli(0.3)) {
          rows.push_back(MakeRow(rows.front()[0].AsInt64(), "dup", 4.0));
          EXPECT_EQ(table.BulkLoadToMain(rows, now).code(),
                    StatusCode::kAlreadyExists);
        } else {
          ASSERT_TRUE(table.BulkLoadToMain(rows, now).ok());
          for (const Row& r : rows) {
            model.Insert(r[0].AsInt64(), r[1].AsString(), now);
          }
          // A loaded table is no longer empty.
          EXPECT_EQ(table.BulkLoadToMain(rows, now).code(),
                    StatusCode::kFailedPrecondition);
        }
      }
      check("step " + std::to_string(step) + " (" + what + ")");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ColumnTableTest, FullyCollectedKeysLeaveTheIndex) {
  // Delivery-style churn: keys inserted, deleted and merged away must read
  // as never written, and may be inserted again afresh.
  ColumnTable table(KeyedSchema());
  Timestamp ts = 1;
  for (int round = 0; round < 5; ++round) {
    for (int64_t id = 0; id < 200; ++id) {
      ASSERT_TRUE(table.InsertCommitted(MakeRow(id, "r", 1), ++ts).ok());
    }
    for (int64_t id = 0; id < 200; ++id) {
      ASSERT_TRUE(table.DeleteCommitted(KeyOf(id), ++ts).ok());
    }
    ++ts;
    table.MergeDelta(ts, ts);
    for (int64_t id = 0; id < 200; ++id) {
      ASSERT_EQ(table.LastWriteTs(KeyOf(id)), 0u) << "round " << round;
      Row out;
      ASSERT_FALSE(table.Lookup(KeyOf(id), ts, &out));
    }
    EXPECT_EQ(table.main_size(), 0u);
  }
}

TEST(MainFragmentTest, VisibleMaskRespectsDeleteTimestamps) {
  std::vector<ColumnSegment> cols;
  cols.push_back(ColumnSegment::BuildInt64({1, 2, 3, 4}));
  MainFragment frag(std::move(cols), 4, /*build_ts=*/5);
  frag.MarkDeleted(1, 10);
  frag.MarkDeleted(3, 20);

  BitVector mask;
  frag.VisibleMask(/*read_ts=*/4, &mask);
  EXPECT_EQ(mask.CountSet(), 0u);  // before build
  frag.VisibleMask(5, &mask);
  EXPECT_EQ(mask.CountSet(), 4u);  // deletes are later
  frag.VisibleMask(10, &mask);
  EXPECT_EQ(mask.CountSet(), 3u);
  EXPECT_FALSE(mask.Get(1));
  frag.VisibleMask(20, &mask);
  EXPECT_EQ(mask.CountSet(), 2u);
}

TEST(MainFragmentTest, PerRowInsertTimestamps) {
  std::vector<ColumnSegment> cols;
  cols.push_back(ColumnSegment::BuildInt64({1, 2, 3}));
  MainFragment frag(std::move(cols), 3, /*build_ts=*/30,
                    std::vector<Timestamp>{10, 20, 30});
  EXPECT_TRUE(frag.VisibleAt(0, 10));
  EXPECT_FALSE(frag.VisibleAt(1, 10));
  BitVector mask;
  frag.VisibleMask(20, &mask);
  EXPECT_EQ(mask.CountSet(), 2u);
  EXPECT_EQ(frag.InsertTsOf(2), 30u);
}

TEST(MainFragmentTest, EarliestDeleteWins) {
  std::vector<ColumnSegment> cols;
  cols.push_back(ColumnSegment::BuildInt64({1}));
  MainFragment frag(std::move(cols), 1, 0);
  frag.MarkDeleted(0, 50);
  frag.MarkDeleted(0, 40);  // racing earlier delete
  EXPECT_FALSE(frag.VisibleAt(0, 45));
  EXPECT_TRUE(frag.VisibleAt(0, 39));
}

TEST(MainFragmentTest, GetRowReconstructsTuple) {
  std::vector<ColumnSegment> cols;
  cols.push_back(ColumnSegment::BuildInt64({7, 8}));
  cols.push_back(ColumnSegment::BuildString({"x", "y"}));
  MainFragment frag(std::move(cols), 2, 0);
  Row r = frag.GetRow(1);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].AsInt64(), 8);
  EXPECT_EQ(r[1].AsString(), "y");
}

}  // namespace
}  // namespace oltap
