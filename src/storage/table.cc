#include "storage/table.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"

namespace oltap {

const char* TableFormatToString(TableFormat f) {
  switch (f) {
    case TableFormat::kRow:
      return "ROW";
    case TableFormat::kColumn:
      return "COLUMN";
    case TableFormat::kDual:
      return "DUAL";
  }
  return "?";
}

Table::Table(std::string name, Schema schema, TableFormat format)
    : name_(std::move(name)), schema_(std::move(schema)), format_(format) {
  switch (format_) {
    case TableFormat::kRow:
      row_ = std::make_unique<RowTable>(schema_);
      break;
    case TableFormat::kColumn:
      column_ = std::make_unique<ColumnTable>(schema_);
      break;
    case TableFormat::kDual:
      dual_ = std::make_unique<DualTable>(schema_);
      break;
  }
}

Status Table::InsertCommitted(Row row, Timestamp ts) {
  ChangeLog* log = change_log();
  // The engine takes the row unless the change log needs it afterwards.
  auto take = [&]() -> Row {
    return log != nullptr ? Row(row) : std::move(row);
  };
  Status s = Status::Internal("bad format");
  switch (format_) {
    case TableFormat::kRow:
      s = row_->InsertCommitted(row, ts);
      break;
    case TableFormat::kColumn:
      s = column_->InsertCommitted(take(), ts);
      break;
    case TableFormat::kDual:
      s = dual_->InsertCommitted(take(), ts);
      break;
  }
  if (s.ok()) {
    mod_count_.fetch_add(1, std::memory_order_relaxed);
    if (log != nullptr) {
      log->Append({ChangeLog::Kind::kInsert, std::move(row), ts,
                   SystemClock::Get()->NowMicros()});
    }
  }
  return s;
}

Status Table::DeleteCommitted(std::string_view key, Timestamp ts) {
  // Pre-image for the change log, captured before the engine applies the
  // delete (the delta-aggregate paths need the deleted row's values).
  Row pre;
  bool have_pre = false;
  ChangeLog* log = change_log();
  if (log != nullptr) have_pre = Lookup(key, ts, &pre);
  Status s = Status::Internal("bad format");
  switch (format_) {
    case TableFormat::kRow:
      s = row_->DeleteCommitted(key, ts);
      break;
    case TableFormat::kColumn:
      s = column_->DeleteCommitted(key, ts);
      break;
    case TableFormat::kDual:
      s = dual_->DeleteCommitted(key, ts);
      break;
  }
  if (s.ok()) {
    mod_count_.fetch_add(1, std::memory_order_relaxed);
    if (log != nullptr && have_pre) {
      log->Append({ChangeLog::Kind::kDelete, std::move(pre), ts,
                   SystemClock::Get()->NowMicros()});
    }
  }
  return s;
}

Status Table::UpdateCommitted(std::string_view key, Row new_row,
                              Timestamp ts) {
  Row pre;
  bool have_pre = false;
  ChangeLog* log = change_log();
  if (log != nullptr) have_pre = Lookup(key, ts, &pre);
  auto take = [&]() -> Row {
    return log != nullptr ? Row(new_row) : std::move(new_row);
  };
  Status s = Status::Internal("bad format");
  switch (format_) {
    case TableFormat::kRow:
      s = row_->UpdateCommitted(key, new_row, ts);
      break;
    case TableFormat::kColumn:
      s = column_->UpdateCommitted(key, take(), ts);
      break;
    case TableFormat::kDual:
      s = dual_->UpdateCommitted(key, take(), ts);
      break;
  }
  if (s.ok()) {
    mod_count_.fetch_add(1, std::memory_order_relaxed);
    if (log != nullptr) {
      // Update = delete(pre-image) + insert(new), same commit ts; the
      // delete is appended first so replay order matches apply order.
      int64_t now = SystemClock::Get()->NowMicros();
      if (have_pre) {
        log->Append({ChangeLog::Kind::kDelete, std::move(pre), ts, now});
      }
      log->Append({ChangeLog::Kind::kInsert, std::move(new_row), ts, now});
    }
  }
  return s;
}

bool Table::Lookup(std::string_view key, Timestamp read_ts, Row* out) const {
  switch (format_) {
    case TableFormat::kRow:
      return row_->Lookup(key, read_ts, out);
    case TableFormat::kColumn:
      return column_->Lookup(key, read_ts, out);
    case TableFormat::kDual:
      return dual_->Lookup(key, read_ts, out);
  }
  return false;
}

Timestamp Table::LastWriteTs(std::string_view key) const {
  switch (format_) {
    case TableFormat::kRow:
      return row_->LastWriteTs(key);
    case TableFormat::kColumn:
      return column_->LastWriteTs(key);
    case TableFormat::kDual:
      return dual_->LastWriteTs(key);
  }
  return 0;
}

void Table::ScanVisible(Timestamp read_ts,
                        const std::function<void(const Row&)>& fn) const {
  if (format_ == TableFormat::kRow) {
    row_->ScanVisible(read_ts, fn);
    return;
  }
  std::optional<ColumnTable::Snapshot> snap = GetColumnSnapshot(read_ts);
  OLTAP_DCHECK(snap.has_value());
  const MainFragment& main = *snap->main;
  BitVector visible;
  main.VisibleMask(read_ts, &visible);
  for (size_t r = visible.FindNextSet(0); r < visible.size();
       r = visible.FindNextSet(r + 1)) {
    fn(main.GetRow(static_cast<RowId>(r)));
  }
  if (snap->frozen != nullptr) {
    snap->frozen->ForEachVisible(
        read_ts, [&](uint32_t, const Row& row) { fn(row); });
  }
  snap->delta->ForEachVisible(read_ts,
                              [&](uint32_t, const Row& row) { fn(row); });
}

size_t Table::ScanRange(std::string_view start_key, size_t limit,
                        Timestamp read_ts,
                        const std::function<void(const Row&)>& fn) const {
  const RowTable* rows = row_table();
  if (rows != nullptr) {
    return rows->ScanRange(start_key, limit, read_ts, fn);
  }
  // Columnar-only: collect matching keys via a full visible scan, then
  // emit the first `limit` in key order (the cost E4 quantifies).
  std::vector<std::pair<std::string, Row>> matches;
  ScanVisible(read_ts, [&](const Row& row) {
    std::string key = EncodeKey(schema_, row);
    if (key >= start_key) matches.emplace_back(std::move(key), row);
  });
  std::sort(matches.begin(), matches.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t n = std::min(limit, matches.size());
  for (size_t i = 0; i < n; ++i) fn(matches[i].second);
  return n;
}

std::optional<ColumnTable::Snapshot> Table::GetColumnSnapshot(
    Timestamp read_ts) const {
  switch (format_) {
    case TableFormat::kRow:
      return std::nullopt;
    case TableFormat::kColumn:
      return column_->GetSnapshot(read_ts);
    case TableFormat::kDual:
      return dual_->GetColumnSnapshot(read_ts);
  }
  return std::nullopt;
}

size_t Table::MergeDelta(Timestamp merge_ts, Timestamp gc_horizon) {
  switch (format_) {
    case TableFormat::kRow:
      return 0;
    case TableFormat::kColumn:
      return column_->MergeDelta(merge_ts, gc_horizon);
    case TableFormat::kDual:
      return dual_->MergeDelta(merge_ts, gc_horizon);
  }
  return 0;
}

size_t Table::CountVisible(Timestamp read_ts) const {
  size_t n = 0;
  ScanVisible(read_ts, [&n](const Row&) { ++n; });
  return n;
}

Status Table::BulkLoadToMain(const std::vector<Row>& rows, Timestamp ts) {
  ColumnTable* ct = column_table();
  if (ct == nullptr) {
    return Status::FailedPrecondition("BulkLoadToMain requires a column side");
  }
  if (format_ == TableFormat::kDual) {
    // Keep the mirrors consistent: load the row side too.
    for (const Row& r : rows) {
      OLTAP_RETURN_NOT_OK(dual_->row_side()->InsertCommitted(r, ts));
    }
  }
  Status s = ct->BulkLoadToMain(rows, ts);
  if (s.ok()) mod_count_.fetch_add(rows.size(), std::memory_order_relaxed);
  return s;
}

size_t Table::ApproxRowCount() const {
  const RowTable* rt = row_table();
  if (rt != nullptr) return rt->num_keys();
  const ColumnTable* ct = column_table();
  if (ct != nullptr) return ct->main_size() + ct->delta_size();
  return 0;
}

ChangeLog* Table::EnsureChangeLog() {
  ChangeLog* log = change_log_ptr_.load(std::memory_order_acquire);
  if (log != nullptr) return log;
  std::lock_guard<std::mutex> lock(change_log_init_mu_);
  if (change_log_holder_ == nullptr) {
    change_log_holder_ = std::make_unique<ChangeLog>();
    change_log_ptr_.store(change_log_holder_.get(),
                          std::memory_order_release);
  }
  return change_log_holder_.get();
}

RowTable* Table::row_table() {
  if (format_ == TableFormat::kRow) return row_.get();
  if (format_ == TableFormat::kDual) return dual_->row_side();
  return nullptr;
}
const RowTable* Table::row_table() const {
  return const_cast<Table*>(this)->row_table();
}

ColumnTable* Table::column_table() {
  if (format_ == TableFormat::kColumn) return column_.get();
  if (format_ == TableFormat::kDual) return dual_->column_side();
  return nullptr;
}
const ColumnTable* Table::column_table() const {
  return const_cast<Table*>(this)->column_table();
}

}  // namespace oltap
