#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/key_index.h"
#include "storage/row.h"

namespace oltap {
namespace {

// EncodeKeyAt reads typed vectors but must emit exactly the bytes
// EncodeKeyColumns emits for the boxed row: accumulator merges and join
// builds compare keys from both.
TEST(EncodeKeyAtTest, MatchesBoxedRowEncoding) {
  std::vector<Row> rows = {
      {Value::Int64(0), Value::Double(0.0), Value::String("")},
      {Value::Int64(std::numeric_limits<int64_t>::min()), Value::Double(-0.0),
       Value::String(std::string("a\0b", 3))},
      {Value::Int64(std::numeric_limits<int64_t>::max()),
       Value::Double(std::nan("")), Value::String("state")},
      {Value::Null(ValueType::kInt64), Value::Double(-1.5),
       Value::Null(ValueType::kString)},
      {Value::Int64(-7), Value::Null(ValueType::kDouble),
       Value::String(std::string(40, 'x'))},
  };
  Batch batch;
  for (const Row& r : rows) {
    batch.AppendRow(r, {ValueType::kInt64, ValueType::kDouble,
                        ValueType::kString});
  }
  std::vector<const ColumnVector*> cols;
  for (const ColumnVector& c : batch.columns) cols.push_back(&c);
  std::string key;
  for (size_t i = 0; i < rows.size(); ++i) {
    bool any_null = EncodeKeyAt(cols, i, &key);
    EXPECT_EQ(key, EncodeKeyColumns(rows[i], {0, 1, 2})) << "row " << i;
    EXPECT_EQ(any_null, i >= 3) << "row " << i;
  }
}

TEST(KeyIndexTest, DenseIdsInFirstInsertionOrder) {
  KeyIndex index;
  std::vector<std::string> keys;
  for (int i = 0; i < 5000; ++i) keys.push_back("k" + std::to_string(i * 7));
  for (size_t i = 0; i < keys.size(); ++i) {
    bool inserted = false;
    uint32_t id =
        index.FindOrInsert(keys[i], KeyIndex::Hash(keys[i]), &inserted);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(id, i);
  }
  ASSERT_EQ(index.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    bool inserted = true;
    EXPECT_EQ(index.FindOrInsert(keys[i], KeyIndex::Hash(keys[i]), &inserted),
              i);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(index.Find(keys[i], KeyIndex::Hash(keys[i])), i);
    EXPECT_EQ(index.key(static_cast<uint32_t>(i)), keys[i]);
  }
  EXPECT_EQ(index.Find("absent", KeyIndex::Hash("absent")), KeyIndex::kNone);
  // The empty key is a key like any other (global aggregates use it).
  bool inserted = false;
  EXPECT_EQ(index.FindOrInsert("", KeyIndex::Hash(""), &inserted),
            keys.size());
  EXPECT_TRUE(inserted);
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(keys[0], KeyIndex::Hash(keys[0])), KeyIndex::kNone);
}

TEST(KeyIndexTest, SharedLowHashBitsStillSpread) {
  // A join partition holds keys whose hashes agree modulo the partition
  // count; lookups must stay correct (and fast) for such key sets.
  KeyIndex index;
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 2000; ++i) {
    std::string k = std::to_string(i);
    if (KeyIndex::Hash(k) % 4 == 1) keys.push_back(k);
  }
  for (const std::string& k : keys) {
    bool inserted;
    index.FindOrInsert(k, KeyIndex::Hash(k), &inserted);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(index.Find(keys[i], KeyIndex::Hash(keys[i])), i);
  }
}

TEST(JoinTableTest, MatchesInAscendingRowOrder) {
  JoinTable table;
  std::vector<std::string> keys = {"a", "b", "a", "c", "b", "a"};
  for (size_t r = 0; r < keys.size(); ++r) {
    table.Add(keys[r], KeyIndex::Hash(keys[r]), static_cast<uint32_t>(r * 10));
  }
  table.Finish();
  auto rows = [&](const std::string& k) {
    auto [first, last] = table.Find(k, KeyIndex::Hash(k));
    return std::vector<uint32_t>(first, last);
  };
  EXPECT_EQ(rows("a"), (std::vector<uint32_t>{0, 20, 50}));
  EXPECT_EQ(rows("b"), (std::vector<uint32_t>{10, 40}));
  EXPECT_EQ(rows("c"), (std::vector<uint32_t>{30}));
  EXPECT_TRUE(rows("d").empty());

  JoinTable empty;
  empty.Finish();
  EXPECT_TRUE(empty.Find("a", KeyIndex::Hash("a")).first ==
              empty.Find("a", KeyIndex::Hash("a")).second);
}

}  // namespace
}  // namespace oltap
