#ifndef OLTAP_COMMON_KEY_INDEX_H_
#define OLTAP_COMMON_KEY_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace oltap {

// Dense ids for encoded keys (the EncodeKeyAt bytes of hash aggregation and
// hash joins, the EncodeKey bytes of a column table's primary-key index):
// an open-addressing hash table over one byte arena. Ids count up from 0
// in first-insertion order. Unlike a map of strings, a key costs
// no allocation of its own, and a key's bytes and hash stay available by
// id, so merging one index into another re-hashes nothing.
class KeyIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  static uint64_t Hash(std::string_view key);

  // The id of `key` (whose Hash is `hash`), or kNone.
  uint32_t Find(std::string_view key, uint64_t hash) const;
  // The id of `key`, inserted with the next id if absent.
  uint32_t FindOrInsert(std::string_view key, uint64_t hash, bool* inserted);

  size_t size() const { return hashes_.size(); }
  std::string_view key(uint32_t id) const {
    uint32_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(bytes_).substr(begin, ends_[id] - begin);
  }
  uint64_t hash(uint32_t id) const { return hashes_[id]; }
  // Sizes the table for `n` keys, so inserting them rehashes nothing.
  void Reserve(size_t n);
  void Clear();

 private:
  // Table slot where `key` lives or would be inserted.
  size_t Probe(std::string_view key, uint64_t hash) const;
  void Rehash(size_t capacity);

  std::vector<uint32_t> table_;  // id + 1 per slot, 0 = empty; power of 2
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> ends_;   // key id ends at bytes_[ends_[id]]
  std::string bytes_;
};

}  // namespace oltap

#endif  // OLTAP_COMMON_KEY_INDEX_H_
