#include "common/key_index.h"

#include "common/hash.h"
#include "common/logging.h"

namespace oltap {

uint64_t KeyIndex::Hash(std::string_view key) { return HashString(key); }

namespace {

// Table slots come from the hash's high bits: callers partition by its
// low bits (PartitionOf), which a partition's keys all share.
size_t HomeSlot(uint64_t hash, size_t mask) {
  return static_cast<size_t>(hash >> 29) & mask;
}

}  // namespace

size_t KeyIndex::Probe(std::string_view key, uint64_t hash) const {
  size_t mask = table_.size() - 1;
  for (size_t s = HomeSlot(hash, mask);; s = (s + 1) & mask) {
    uint32_t e = table_[s];
    if (e == 0) return s;
    uint32_t id = e - 1;
    if (hashes_[id] == hash && this->key(id) == key) return s;
  }
}

uint32_t KeyIndex::Find(std::string_view key, uint64_t hash) const {
  if (table_.empty()) return kNone;
  uint32_t e = table_[Probe(key, hash)];
  return e == 0 ? kNone : e - 1;
}

uint32_t KeyIndex::FindOrInsert(std::string_view key, uint64_t hash,
                                bool* inserted) {
  // Keep the load factor at or below 1/2.
  if (2 * (hashes_.size() + 1) > table_.size()) {
    Rehash(table_.empty() ? 16 : 2 * table_.size());
  }
  size_t s = Probe(key, hash);
  *inserted = table_[s] == 0;
  if (!*inserted) return table_[s] - 1;
  uint32_t id = static_cast<uint32_t>(hashes_.size());
  // Ids and arena offsets are 32-bit.
  OLTAP_CHECK(id < kNone && bytes_.size() + key.size() <= UINT32_MAX);
  hashes_.push_back(hash);
  bytes_.append(key.data(), key.size());
  ends_.push_back(static_cast<uint32_t>(bytes_.size()));
  table_[s] = id + 1;
  return id;
}

void KeyIndex::Rehash(size_t capacity) {
  table_.assign(capacity, 0);
  size_t mask = capacity - 1;
  for (uint32_t id = 0; id < hashes_.size(); ++id) {
    size_t s = HomeSlot(hashes_[id], mask);
    while (table_[s] != 0) s = (s + 1) & mask;
    table_[s] = id + 1;
  }
}

void KeyIndex::Reserve(size_t n) {
  hashes_.reserve(n);
  ends_.reserve(n);
  size_t capacity = 16;
  while (capacity < 2 * n) capacity *= 2;
  if (capacity > table_.size()) Rehash(capacity);
}

void KeyIndex::Clear() {
  table_.clear();
  hashes_.clear();
  ends_.clear();
  bytes_.clear();
}

}  // namespace oltap
