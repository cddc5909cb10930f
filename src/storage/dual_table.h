#ifndef OLTAP_STORAGE_DUAL_TABLE_H_
#define OLTAP_STORAGE_DUAL_TABLE_H_

#include <atomic>
#include <functional>
#include <string_view>

#include "common/status.h"
#include "common/types.h"
#include "storage/column_store.h"
#include "storage/row.h"
#include "storage/row_store.h"
#include "storage/schema.h"

namespace oltap {

// Committed-write row engine: a thin transactional veneer over the
// lock-free skip list. Versions carry final commit timestamps (the
// transaction layer validates and orders commits before applying). This is
// the OLTP-optimized mirror of the dual-format design and the standalone
// `kRow` table format.
class RowTable {
 public:
  explicit RowTable(Schema schema);

  const Schema& schema() const { return store_.schema(); }

  Status InsertCommitted(const Row& row, Timestamp ts);
  Status DeleteCommitted(std::string_view key, Timestamp ts);
  Status UpdateCommitted(std::string_view key, const Row& new_row,
                         Timestamp ts);

  bool Lookup(std::string_view key, Timestamp read_ts, Row* out) const;

  // Commit timestamp of the last write to `key`; 0 if never written.
  Timestamp LastWriteTs(std::string_view key) const;

  // Invokes fn for every row visible at read_ts, in key order.
  void ScanVisible(Timestamp read_ts,
                   const std::function<void(const Row&)>& fn) const;

  // Ordered short-range scan: visits up to `limit` visible rows with
  // encoded key >= start_key, in key order — the skip list's signature
  // OLTP access path (TPC-C "next orders of this district"), which
  // hash-indexed columnar tables cannot serve without a full scan.
  // Returns the number of rows visited.
  size_t ScanRange(std::string_view start_key, size_t limit,
                   Timestamp read_ts,
                   const std::function<void(const Row&)>& fn) const;

  size_t num_keys() const { return store_.num_entries(); }
  RowStore* store() { return &store_; }
  const RowStore* store() const { return &store_; }

 private:
  // Key for a row: the schema key, or an internal sequence for keyless
  // tables (append-only, e.g. TPC-C HISTORY).
  std::string KeyFor(const Row& row);

  RowStore store_;
  std::atomic<uint64_t> seq_{0};
};

// Dual-format table (Oracle Database In-Memory [22] / fractured mirrors
// [33]): the same data maintained simultaneously in a row mirror (OLTP
// point access through the skip list) and a columnar mirror (delta + main,
// analytic scans). Every committed write applies to both mirrors at the
// same commit timestamp, so the two formats are transactionally consistent
// at every read timestamp — the paper's "both formats are simultaneously
// active and strict transactional consistency is guaranteed".
class DualTable {
 public:
  explicit DualTable(Schema schema);

  const Schema& schema() const { return row_.schema(); }

  // The row mirror copies the row; the columnar mirror takes it.
  Status InsertCommitted(Row row, Timestamp ts);
  Status DeleteCommitted(std::string_view key, Timestamp ts);
  Status UpdateCommitted(std::string_view key, Row new_row, Timestamp ts);

  // Point reads are served from the row mirror.
  bool Lookup(std::string_view key, Timestamp read_ts, Row* out) const {
    return row_.Lookup(key, read_ts, out);
  }
  Timestamp LastWriteTs(std::string_view key) const {
    return row_.LastWriteTs(key);
  }

  // Analytic scans are served from the columnar mirror.
  ColumnTable::Snapshot GetColumnSnapshot(Timestamp read_ts) const {
    return column_.GetSnapshot(read_ts);
  }

  size_t MergeDelta(Timestamp merge_ts, Timestamp gc_horizon) {
    return column_.MergeDelta(merge_ts, gc_horizon);
  }

  RowTable* row_side() { return &row_; }
  ColumnTable* column_side() { return &column_; }
  const ColumnTable* column_side() const { return &column_; }

 private:
  RowTable row_;
  ColumnTable column_;
};

}  // namespace oltap

#endif  // OLTAP_STORAGE_DUAL_TABLE_H_
