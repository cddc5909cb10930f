#ifndef OLTAP_TXN_MVCC_H_
#define OLTAP_TXN_MVCC_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/row.h"
#include "storage/row_store.h"
#include "txn/transaction_manager.h"

namespace oltap {

// In-place multi-version concurrency control over the skip-list row store:
// the Hekaton/HyPer-style alternative to the deferred-write manager in
// transaction_manager.h. Writers install version *intents* immediately
// (begin/end fields carry a transaction marker, see common/types.h);
// readers traverse version chains latch-free and simply skip other
// transactions' intents. Commit atomically finalizes all intents with the
// commit timestamp; abort unlinks them.
//
// Write-write conflicts are detected pessimistically at write time (a
// marker or a post-snapshot commit timestamp on the newest version aborts
// the writer), which is first-committer-wins without any commit-time
// validation pass.
class MvccEngine {
 public:
  // The engine shares the oracle with the rest of the system so snapshot
  // timestamps are comparable across engines.
  MvccEngine(RowStore* store, TimestampOracle* oracle);
  ~MvccEngine();

  MvccEngine(const MvccEngine&) = delete;
  MvccEngine& operator=(const MvccEngine&) = delete;

  class Txn {
   public:
    uint64_t id() const { return id_; }
    Timestamp begin_ts() const { return begin_ts_; }

   private:
    friend class MvccEngine;
    struct WriteRecord {
      RowStore::Entry* entry;
      RowVersion* installed;  // new version (intent), may be null (delete)
      RowVersion* closed;     // prior version whose end we stamped, or null
    };
    uint64_t id_ = 0;
    Timestamp begin_ts_ = 0;
    std::vector<WriteRecord> writes_;
    bool finished_ = false;
  };

  std::unique_ptr<Txn> Begin();

  // Snapshot read at the transaction's begin timestamp (sees own intents).
  bool Read(Txn* txn, std::string_view key, Row* out) const;

  // Insert a new row / update an existing one (distinguished by liveness).
  Status Upsert(Txn* txn, std::string_view key, Row row);

  Status Delete(Txn* txn, std::string_view key);

  // Finalizes all intents at a fresh commit timestamp.
  Timestamp Commit(Txn* txn);

  // Unlinks intents and restores closed versions.
  void Abort(Txn* txn);

  uint64_t num_conflicts() const {
    return conflicts_.load(std::memory_order_relaxed);
  }

 private:
  RowStore* store_;
  TimestampOracle* oracle_;
  // Orders snapshot reads of the oracle against commits: a commit
  // allocates its timestamp and publishes its outcome under this lock, so
  // a snapshot at T never sees a transaction with commit ts <= T still
  // resolving as active (the published watermark).
  std::mutex commit_mu_;
  std::atomic<uint64_t> next_txn_id_{1};
  std::atomic<uint64_t> conflicts_{0};

  // Versions unlinked by aborts stay alive (readers may still hold them)
  // and are reclaimed when the engine is destroyed.
  std::mutex garbage_mu_;
  std::vector<RowVersion*> garbage_;
};

}  // namespace oltap

#endif  // OLTAP_TXN_MVCC_H_
