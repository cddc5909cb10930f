#ifndef OLTAP_EXEC_KEY_INDEX_H_
#define OLTAP_EXEC_KEY_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace oltap {

// Dense ids for encoded keys (the EncodeKeyAt bytes of hash aggregation and
// hash joins): an open-addressing hash table over one byte arena. Ids count
// up from 0 in first-insertion order. Unlike a map of strings, a key costs
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

// The partition, among `n`, of a key whose hash is `hash`: a multiply-shift
// over the hash's low 29 bits, with no division. KeyIndex's home slots
// come from the bits above, so one partition's keys still spread over its
// whole table.
inline size_t PartitionOf(uint64_t hash, size_t n) {
  return static_cast<size_t>(((hash & 0x1fffffffu) * n) >> 29);
}

// The build side of a hash join: each distinct key's build rows, in
// ascending row order (the order both joins emit duplicate matches in).
class JoinTable {
 public:
  // Rows must arrive in ascending order.
  void Add(std::string_view key, uint64_t hash, uint32_t row);
  // Call once after the last Add, before Find.
  void Finish();
  // The rows matching `key`, as [first, last).
  std::pair<const uint32_t*, const uint32_t*> Find(std::string_view key,
                                                   uint64_t hash) const;

 private:
  KeyIndex index_;
  std::vector<uint32_t> row_ids_;  // key id per added row (until Finish)
  std::vector<uint32_t> added_;    // added rows (until Finish)
  std::vector<uint32_t> offsets_;  // key id -> [offsets_[id], offsets_[id+1])
  std::vector<uint32_t> rows_;
};

}  // namespace oltap

#endif  // OLTAP_EXEC_KEY_INDEX_H_
