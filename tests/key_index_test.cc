#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/key_index.h"

namespace oltap {
namespace {

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

}  // namespace
}  // namespace oltap
