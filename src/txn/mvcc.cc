#include "txn/mvcc.h"

#include <shared_mutex>
#include <unordered_map>

#include "common/logging.h"
#include "obs/metrics.h"

namespace oltap {

namespace {

// Mirrors the engine-local conflict count into the global registry.
void NoteConflict(std::atomic<uint64_t>* local) {
  local->fetch_add(1, std::memory_order_relaxed);
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("mvcc.conflicts");
  c->Add(1);
}

}  // namespace


// Transaction-state side table (the Hekaton postprocessing design): while a
// transaction's intents are being finalized, readers that encounter a
// marker resolve it here; once stamping completes the entry is erased and
// readers simply re-read the now-final fields.
enum class TxnOutcome : uint8_t { kActive, kCommitted, kAborted };
struct TxnStateEntry {
  TxnOutcome outcome = TxnOutcome::kActive;
  Timestamp commit_ts = 0;
};

namespace {

struct StateTable {
  mutable std::shared_mutex mu;
  std::unordered_map<uint64_t, TxnStateEntry> map;

  void Set(uint64_t id, TxnOutcome outcome, Timestamp ts) {
    std::unique_lock lock(mu);
    map[id] = TxnStateEntry{outcome, ts};
  }
  void Erase(uint64_t id) {
    std::unique_lock lock(mu);
    map.erase(id);
  }
  bool Get(uint64_t id, TxnStateEntry* out) const {
    std::shared_lock lock(mu);
    auto it = map.find(id);
    if (it == map.end()) return false;
    *out = it->second;
    return true;
  }
};

// One state table per engine, stored behind the engine pointer. Kept out of
// the header to avoid exposing the map type.
StateTable* TableFor(const MvccEngine* engine) {
  static std::mutex registry_mu;
  static std::unordered_map<const MvccEngine*, StateTable*>* registry =
      new std::unordered_map<const MvccEngine*, StateTable*>();
  std::lock_guard<std::mutex> lock(registry_mu);
  auto [it, inserted] = registry->emplace(engine, nullptr);
  if (inserted) it->second = new StateTable();
  return it->second;
}

}  // namespace

MvccEngine::MvccEngine(RowStore* store, TimestampOracle* oracle)
    : store_(store), oracle_(oracle) {
  TableFor(this);  // eager init
}

MvccEngine::~MvccEngine() {
  std::lock_guard<std::mutex> lock(garbage_mu_);
  for (RowVersion* v : garbage_) delete v;
}

std::unique_ptr<MvccEngine::Txn> MvccEngine::Begin() {
  auto txn = std::unique_ptr<Txn>(new Txn());
  txn->id_ = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  {
    // Every commit ts <= the snapshot has published its outcome.
    std::lock_guard<std::mutex> lock(commit_mu_);
    txn->begin_ts_ = oracle_->CurrentReadTs();
  }
  TableFor(this)->Set(txn->id_, TxnOutcome::kActive, 0);
  return txn;
}

namespace {

// Marker-aware visibility with state-table resolution. Retries while a
// finalization is in flight (bounded: stamping is a handful of stores).
bool VisibleResolved(const StateTable& states, const RowVersion& v,
                     Timestamp read_ts, uint64_t self) {
  while (true) {
    Timestamp begin = v.begin.load(std::memory_order_acquire);
    if (IsTxnId(begin)) {
      uint64_t tid = TxnIdOf(begin);
      if (tid != self) {
        TxnStateEntry st;
        if (!states.Get(tid, &st)) continue;  // being stamped; re-read
        if (st.outcome != TxnOutcome::kCommitted) return false;
        if (st.commit_ts > read_ts) return false;
      }
    } else if (begin > read_ts) {
      return false;
    }
    Timestamp end = v.end.load(std::memory_order_acquire);
    if (IsTxnId(end)) {
      uint64_t tid = TxnIdOf(end);
      if (tid == self) return false;  // own delete intent
      TxnStateEntry st;
      if (!states.Get(tid, &st)) continue;
      if (st.outcome == TxnOutcome::kCommitted && st.commit_ts <= read_ts) {
        return false;
      }
      return true;
    }
    return end > read_ts;
  }
}

}  // namespace

bool MvccEngine::Read(Txn* txn, std::string_view key, Row* out) const {
  const RowStore::Entry* entry = store_->Get(key);
  if (entry == nullptr) return false;
  const StateTable& states = *TableFor(this);
  for (const RowVersion* v = entry->head.load(std::memory_order_acquire);
       v != nullptr; v = v->next) {
    if (VisibleResolved(states, *v, txn->begin_ts_, txn->id_)) {
      *out = v->data;
      return true;
    }
  }
  return false;
}

Status MvccEngine::Upsert(Txn* txn, std::string_view key, Row row) {
  OLTAP_CHECK(!txn->finished_);
  RowStore::Entry* entry = store_->GetOrCreate(key);
  RowVersion* head = entry->head.load(std::memory_order_acquire);
  RowVersion* closed = nullptr;

  if (head != nullptr) {
    Timestamp begin = head->begin.load(std::memory_order_acquire);
    Timestamp end = head->end.load(std::memory_order_acquire);
    // Another transaction's intent anywhere on the newest version is a
    // write-write conflict (pessimistic first-committer-wins).
    if (IsTxnId(begin) && TxnIdOf(begin) != txn->id_) {
      NoteConflict(&conflicts_);
      return Status::Aborted("uncommitted write by another transaction");
    }
    if (IsTxnId(end) && TxnIdOf(end) != txn->id_) {
      NoteConflict(&conflicts_);
      return Status::Aborted("uncommitted delete by another transaction");
    }
    // A commit after our snapshot is also a conflict.
    Timestamp last_write = 0;
    if (!IsTxnId(begin)) last_write = begin;
    if (!IsTxnId(end) && end != kMaxTimestamp) {
      last_write = std::max(last_write, end);
    }
    if (last_write > txn->begin_ts_) {
      NoteConflict(&conflicts_);
      return Status::Aborted("write committed after snapshot");
    }
    // Live newest version (own intent or committed): close it.
    bool live = end == kMaxTimestamp;
    if (live) {
      Timestamp expected = kMaxTimestamp;
      if (!head->end.compare_exchange_strong(expected,
                                             MakeTxnMarker(txn->id_),
                                             std::memory_order_acq_rel)) {
        NoteConflict(&conflicts_);
        return Status::Aborted("lost race closing version");
      }
      closed = head;
    }
  }

  auto* v = new RowVersion(std::move(row));
  v->begin.store(MakeTxnMarker(txn->id_), std::memory_order_relaxed);
  if (!RowStore::InstallVersion(entry, head, v)) {
    delete v;
    if (closed != nullptr) {
      closed->end.store(kMaxTimestamp, std::memory_order_release);
    }
    NoteConflict(&conflicts_);
    return Status::Aborted("lost race installing version");
  }
  txn->writes_.push_back(Txn::WriteRecord{entry, v, closed});
  static obs::Counter* installed =
      obs::MetricsRegistry::Default()->GetCounter("mvcc.versions_installed");
  installed->Add(1);
  return Status::OK();
}

Status MvccEngine::Delete(Txn* txn, std::string_view key) {
  OLTAP_CHECK(!txn->finished_);
  RowStore::Entry* entry = store_->Get(key);
  if (entry == nullptr) return Status::NotFound("key not found");
  RowVersion* head = entry->head.load(std::memory_order_acquire);
  if (head == nullptr) return Status::NotFound("key not found");

  Timestamp begin = head->begin.load(std::memory_order_acquire);
  Timestamp end = head->end.load(std::memory_order_acquire);
  if ((IsTxnId(begin) && TxnIdOf(begin) != txn->id_) ||
      (IsTxnId(end) && TxnIdOf(end) != txn->id_)) {
    NoteConflict(&conflicts_);
    return Status::Aborted("uncommitted write by another transaction");
  }
  Timestamp last_write = IsTxnId(begin) ? 0 : begin;
  if (!IsTxnId(end) && end != kMaxTimestamp) {
    last_write = std::max(last_write, end);
  }
  if (last_write > txn->begin_ts_) {
    NoteConflict(&conflicts_);
    return Status::Aborted("write committed after snapshot");
  }
  if (end != kMaxTimestamp) return Status::NotFound("key not live");

  Timestamp expected = kMaxTimestamp;
  if (!head->end.compare_exchange_strong(expected, MakeTxnMarker(txn->id_),
                                         std::memory_order_acq_rel)) {
    NoteConflict(&conflicts_);
    return Status::Aborted("lost race closing version");
  }
  txn->writes_.push_back(Txn::WriteRecord{entry, nullptr, head});
  return Status::OK();
}

Timestamp MvccEngine::Commit(Txn* txn) {
  OLTAP_CHECK(!txn->finished_);
  StateTable* states = TableFor(this);
  Timestamp ts;
  {
    // Allocate and publish atomically with respect to Begin: readers
    // resolving markers now treat every intent of this transaction as
    // committed-at-ts, and no snapshot >= ts predates that.
    std::lock_guard<std::mutex> lock(commit_mu_);
    ts = oracle_->AllocateCommitTs();
    states->Set(txn->id_, TxnOutcome::kCommitted, ts);
  }
  // Stamp fields, then retire the state entry.
  for (const Txn::WriteRecord& w : txn->writes_) {
    if (w.closed != nullptr) {
      w.closed->end.store(ts, std::memory_order_release);
    }
    if (w.installed != nullptr) {
      w.installed->begin.store(ts, std::memory_order_release);
    }
  }
  states->Erase(txn->id_);
  txn->finished_ = true;
  return ts;
}

void MvccEngine::Abort(Txn* txn) {
  if (txn->finished_) return;
  StateTable* states = TableFor(this);
  states->Set(txn->id_, TxnOutcome::kAborted, 0);
  // Undo newest-first so chains restore cleanly under multiple own writes
  // to the same key.
  for (auto it = txn->writes_.rbegin(); it != txn->writes_.rend(); ++it) {
    if (it->installed != nullptr) {
      // Nothing can have been installed above our intent (it would have
      // conflicted), so our version is still the head.
      RowVersion* expected = it->installed;
      bool ok = it->entry->head.compare_exchange_strong(
          expected, it->installed->next, std::memory_order_acq_rel);
      OLTAP_CHECK(ok) << "abort found foreign version above intent";
      // Make the unlinked version permanently invisible for readers that
      // still hold a pointer into the old chain.
      it->installed->begin.store(kMaxTimestamp, std::memory_order_release);
      std::lock_guard<std::mutex> lock(garbage_mu_);
      garbage_.push_back(it->installed);
    }
    if (it->closed != nullptr) {
      it->closed->end.store(kMaxTimestamp, std::memory_order_release);
    }
  }
  states->Erase(txn->id_);
  txn->finished_ = true;
}

}  // namespace oltap
