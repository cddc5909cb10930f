#include "storage/dual_table.h"

#include <algorithm>

#include "common/logging.h"

namespace oltap {

RowTable::RowTable(Schema schema) : store_(std::move(schema)) {}

std::string RowTable::KeyFor(const Row& row) {
  const Schema& s = store_.schema();
  if (s.HasKey()) return EncodeKey(s, row);
  // Keyless tables get a monotone internal key: append-only semantics.
  uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  std::string key(8, '\0');
  for (int i = 0; i < 8; ++i) {
    key[i] = static_cast<char>((seq >> (56 - 8 * i)) & 0xff);
  }
  return key;
}

Status RowTable::InsertCommitted(const Row& row, Timestamp ts) {
  if (row.size() != store_.schema().num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  std::string key = KeyFor(row);
  RowStore::Entry* entry = store_.GetOrCreate(key);
  while (true) {
    RowVersion* head = entry->head.load(std::memory_order_acquire);
    if (head != nullptr && VersionVisible(*head, ts, /*self_txn_id=*/0)) {
      return Status::AlreadyExists("duplicate primary key");
    }
    auto* v = new RowVersion(row);
    v->begin.store(ts, std::memory_order_relaxed);
    if (RowStore::InstallVersion(entry, head, v)) return Status::OK();
    delete v;  // concurrent install won the race; re-examine
  }
}

Status RowTable::DeleteCommitted(std::string_view key, Timestamp ts) {
  RowStore::Entry* entry = store_.Get(key);
  if (entry == nullptr) return Status::NotFound("key not found");
  RowVersion* head = entry->head.load(std::memory_order_acquire);
  if (head == nullptr || !VersionVisible(*head, ts, 0)) {
    return Status::NotFound("key not live");
  }
  Timestamp expected = kMaxTimestamp;
  if (!head->end.compare_exchange_strong(expected, ts,
                                         std::memory_order_acq_rel)) {
    return Status::Aborted("concurrent write to key");
  }
  return Status::OK();
}

Status RowTable::UpdateCommitted(std::string_view key, const Row& new_row,
                                 Timestamp ts) {
  RowStore::Entry* entry = store_.Get(key);
  if (entry == nullptr) return Status::NotFound("key not found");
  RowVersion* head = entry->head.load(std::memory_order_acquire);
  if (head == nullptr || !VersionVisible(*head, ts, 0)) {
    return Status::NotFound("key not live");
  }
  Timestamp expected = kMaxTimestamp;
  if (!head->end.compare_exchange_strong(expected, ts,
                                         std::memory_order_acq_rel)) {
    return Status::Aborted("concurrent write to key");
  }
  auto* v = new RowVersion(new_row);
  v->begin.store(ts, std::memory_order_relaxed);
  if (!RowStore::InstallVersion(entry, head, v)) {
    // Another committed writer should be impossible once we closed `head`,
    // but stay safe: undo is not possible, so surface corruption loudly.
    delete v;
    return Status::Internal("version chain raced after delete stamp");
  }
  return Status::OK();
}

bool RowTable::Lookup(std::string_view key, Timestamp read_ts,
                      Row* out) const {
  const RowStore::Entry* entry = store_.Get(key);
  if (entry == nullptr) return false;
  for (const RowVersion* v = entry->head.load(std::memory_order_acquire);
       v != nullptr; v = v->next) {
    if (VersionVisible(*v, read_ts, 0)) {
      *out = v->data;
      return true;
    }
  }
  return false;
}

Timestamp RowTable::LastWriteTs(std::string_view key) const {
  const RowStore::Entry* entry = store_.Get(key);
  if (entry == nullptr) return 0;
  const RowVersion* head = entry->head.load(std::memory_order_acquire);
  if (head == nullptr) return 0;
  Timestamp begin = head->begin.load(std::memory_order_acquire);
  Timestamp end = head->end.load(std::memory_order_acquire);
  Timestamp last = IsTxnId(begin) ? 0 : begin;
  if (!IsTxnId(end) && end != kMaxTimestamp) last = std::max(last, end);
  return last;
}

void RowTable::ScanVisible(Timestamp read_ts,
                           const std::function<void(const Row&)>& fn) const {
  RowStore::Iterator it(&store_);
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    for (const RowVersion* v =
             it.entry()->head.load(std::memory_order_acquire);
         v != nullptr; v = v->next) {
      if (VersionVisible(*v, read_ts, 0)) {
        fn(v->data);
        break;
      }
    }
  }
}

size_t RowTable::ScanRange(std::string_view start_key, size_t limit,
                           Timestamp read_ts,
                           const std::function<void(const Row&)>& fn) const {
  RowStore::Iterator it(&store_);
  size_t visited = 0;
  for (it.Seek(start_key); it.Valid() && visited < limit; it.Next()) {
    for (const RowVersion* v =
             it.entry()->head.load(std::memory_order_acquire);
         v != nullptr; v = v->next) {
      if (VersionVisible(*v, read_ts, 0)) {
        fn(v->data);
        ++visited;
        break;
      }
    }
  }
  return visited;
}

DualTable::DualTable(Schema schema) : row_(schema), column_(schema) {}

Status DualTable::InsertCommitted(Row row, Timestamp ts) {
  OLTAP_RETURN_NOT_OK(row_.InsertCommitted(row, ts));
  Status col = column_.InsertCommitted(std::move(row), ts);
  // The mirrors run identical checks against identical state; divergence
  // would mean the formats are out of sync, which must never happen.
  OLTAP_CHECK(col.ok()) << "dual-format divergence: " << col.ToString();
  return Status::OK();
}

Status DualTable::DeleteCommitted(std::string_view key, Timestamp ts) {
  OLTAP_RETURN_NOT_OK(row_.DeleteCommitted(key, ts));
  Status col = column_.DeleteCommitted(key, ts);
  OLTAP_CHECK(col.ok()) << "dual-format divergence: " << col.ToString();
  return Status::OK();
}

Status DualTable::UpdateCommitted(std::string_view key, Row new_row,
                                  Timestamp ts) {
  OLTAP_RETURN_NOT_OK(row_.UpdateCommitted(key, new_row, ts));
  Status col = column_.UpdateCommitted(key, std::move(new_row), ts);
  OLTAP_CHECK(col.ok()) << "dual-format divergence: " << col.ToString();
  return Status::OK();
}

}  // namespace oltap
