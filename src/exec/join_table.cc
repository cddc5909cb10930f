#include "exec/join_table.h"

namespace oltap {

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
