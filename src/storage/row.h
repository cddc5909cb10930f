#ifndef OLTAP_STORAGE_ROW_H_
#define OLTAP_STORAGE_ROW_H_

#include <atomic>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace oltap {

// A materialized row: one Value per schema column, in schema order.
using Row = std::vector<Value>;

// Renders "(v1, v2, ...)" for debugging and example output.
std::string RowToString(const Row& row);

// Encodes the primary-key columns of `row` into a memcmp-ordered byte
// string: int64 as biased big-endian, double via an order-preserving bit
// flip, strings with 0x00 0x01 escaping and a 0x00 0x00 terminator (so
// composite keys compare componentwise). This is the skip-list key.
std::string EncodeKey(const Schema& schema, const Row& row);

// Encodes an arbitrary column subset (used by secondary lookups and the
// distributed router, which hashes encoded keys).
std::string EncodeKeyColumns(const Row& row, const std::vector<int>& cols);

// The per-cell pieces of that encoding, for encoders that read typed
// column vectors instead of boxed rows (exec/batch.h: AppendKeyAt). Each
// appends exactly the bytes EncodeKeyColumns emits for the cell.
void AppendKeyNull(std::string* out);
void AppendKeyInt64(std::string* out, int64_t v);
void AppendKeyDouble(std::string* out, double d);
void AppendKeyString(std::string* out, std::string_view s);

// One MVCC version of a row. Version chains hang off row-store entries,
// newest first. `begin`/`end` hold either a commit timestamp or a
// transaction marker (kTxnIdFlag | txn_id) while the writing transaction is
// in flight — see common/types.h. DB2 BLU-style multi-versioning: deletes
// finalize `end`, updates append a fresh version at the head.
struct RowVersion {
  std::atomic<Timestamp> begin{0};
  std::atomic<Timestamp> end{kMaxTimestamp};
  RowVersion* next = nullptr;  // older version, immutable once linked
  Row data;

  RowVersion() = default;
  explicit RowVersion(Row r) : data(std::move(r)) {}
};

// Snapshot-isolation visibility: a version is visible at `read_ts` to
// transaction `self_txn_id` iff it was created by a transaction that
// committed at or before read_ts (or by self), and not yet deleted at
// read_ts (deletions by self count immediately).
bool VersionVisible(const RowVersion& v, Timestamp read_ts,
                    uint64_t self_txn_id);

}  // namespace oltap

#endif  // OLTAP_STORAGE_ROW_H_
