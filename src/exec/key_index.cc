#include "exec/key_index.h"

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

void KeyIndex::Clear() {
  table_.clear();
  hashes_.clear();
  ends_.clear();
  bytes_.clear();
}

void JoinTable::Add(std::string_view key, uint64_t hash, uint32_t row) {
  bool inserted;
  row_ids_.push_back(index_.FindOrInsert(key, hash, &inserted));
  added_.push_back(row);
}

void JoinTable::Finish() {
  // Counting sort of the added rows by key id; stable, so each key's rows
  // stay ascending.
  offsets_.assign(index_.size() + 1, 0);
  for (uint32_t id : row_ids_) ++offsets_[id + 1];
  for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  rows_.resize(added_.size());
  std::vector<uint32_t> next(offsets_.begin(), offsets_.end() - 1);
  for (size_t i = 0; i < added_.size(); ++i) {
    rows_[next[row_ids_[i]]++] = added_[i];
  }
  row_ids_ = {};
  added_ = {};
}

std::pair<const uint32_t*, const uint32_t*> JoinTable::Find(
    std::string_view key, uint64_t hash) const {
  uint32_t id = index_.Find(key, hash);
  if (id == KeyIndex::kNone) return {nullptr, nullptr};
  return {rows_.data() + offsets_[id], rows_.data() + offsets_[id + 1]};
}

}  // namespace oltap
