#ifndef OLTAP_EXEC_JOIN_TABLE_H_
#define OLTAP_EXEC_JOIN_TABLE_H_

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/key_index.h"

namespace oltap {

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

#endif  // OLTAP_EXEC_JOIN_TABLE_H_
