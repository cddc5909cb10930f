#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/join_table.h"
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
