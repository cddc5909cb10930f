// Delta→main merge for ColumnTable: the LSM-style reorganization step
// ("differential files" [29,16]) that folds the writable row-wise delta and
// the positional delete vector into a fresh, fully re-encoded columnar main
// fragment (dictionaries rebuilt, frame-of-reference re-based, zone maps
// recomputed).
//
// The merge runs in three phases so readers and writers never block:
//   1. Freeze  — swap in an empty delta; the old one becomes the frozen
//                delta, still readable and delete-able via Location.gen.
//   2. Build   — construct the new main from (old main minus GC-able
//                deletes) + frozen delta, without any table-wide lock.
//   3. Publish — under the index lock, re-apply deletes that raced with the
//                build, remap the key index's locations (one pass over
//                its dense arrays), and swap the main in.
// Snapshots taken at any point remain valid: they pin the structures they
// saw via shared_ptr.

#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "storage/column_store.h"

namespace oltap {

class MergeJob {
 public:
  MergeJob(ColumnTable* table, Timestamp merge_ts, Timestamp gc_horizon)
      : t_(table), merge_ts_(merge_ts), horizon_(gc_horizon) {}

  size_t Run() {
    std::lock_guard<std::mutex> merge_lock(t_->merge_mu_);
    {
      // Nothing to do if the delta is empty and the main carries no deletes.
      std::lock_guard<std::mutex> snap_lock(t_->snap_mu_);
      if (t_->delta_->size() == 0 && t_->main_->num_deleted() == 0) {
        return t_->main_->num_rows();
      }
    }
    Freeze();
    Build();
    Publish();
    t_->num_merges_.fetch_add(1, std::memory_order_relaxed);
    return new_main_->num_rows();
  }

 private:
  void Freeze() {
    std::unique_lock index_lock(t_->index_mu_);
    std::lock_guard<std::mutex> snap_lock(t_->snap_mu_);
    frozen_ = t_->delta_;
    frozen_gen_ = t_->delta_gen_;
    t_->frozen_delta_ = frozen_;
    t_->delta_ = std::make_shared<DeltaStore>();
    ++t_->delta_gen_;
    old_main_ = t_->main_;
  }

  void Build() {
    old_main_->SnapshotDeletes(&main_deletes_at_build_);
    frozen_->SnapshotTimestamps(&delta_insert_ts_, &delta_deletes_at_build_);

    const size_t n_old = old_main_->num_rows();
    const size_t n_delta = delta_insert_ts_.size();
    main_to_new_.assign(n_old, kInvalidRowId);
    delta_to_new_.assign(n_delta, kInvalidRowId);

    // Decide which rows survive. A deleted row is physically dropped only
    // if no current or future snapshot (read_ts >= horizon_) can see it.
    std::vector<Timestamp> new_insert_ts;
    struct CarriedDelete {
      RowId new_rid;
      Timestamp ts;
    };
    std::vector<CarriedDelete> carried;
    RowId next = 0;
    for (size_t r = 0; r < n_old; ++r) {
      auto del = main_deletes_at_build_.find(static_cast<RowId>(r));
      if (del != main_deletes_at_build_.end() && del->second < horizon_) {
        continue;  // drop
      }
      main_to_new_[r] = next;
      if (del != main_deletes_at_build_.end()) {
        carried.push_back({next, del->second});
      }
      new_insert_ts.push_back(old_main_->InsertTsOf(static_cast<RowId>(r)));
      ++next;
    }
    for (size_t d = 0; d < n_delta; ++d) {
      if (delta_deletes_at_build_[d] < horizon_) continue;  // drop
      delta_to_new_[d] = next;
      if (delta_deletes_at_build_[d] != kMaxTimestamp) {
        carried.push_back({next, delta_deletes_at_build_[d]});
      }
      new_insert_ts.push_back(delta_insert_ts_[d]);
      ++next;
    }

    const size_t n_new = next;
    const Schema& schema = t_->schema_;
    std::vector<ColumnSegment> segments;
    segments.reserve(schema.num_columns());
    std::vector<Value> column_values(n_new);
    // Materialize delta rows once (row-wise store), then build column-wise.
    std::vector<Row> delta_rows(n_delta);
    for (size_t d = 0; d < n_delta; ++d) {
      if (delta_to_new_[d] != kInvalidRowId) {
        delta_rows[d] = frozen_->GetRaw(static_cast<uint32_t>(d));
      }
    }
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      // The first merge starts from an empty main with no column
      // segments; don't form a reference into its empty vector.
      if (n_old > 0) {
        const ColumnSegment& old_col = old_main_->column(c);
        for (size_t r = 0; r < n_old; ++r) {
          if (main_to_new_[r] != kInvalidRowId) {
            column_values[main_to_new_[r]] =
                old_col.GetValue(static_cast<RowId>(r));
          }
        }
      }
      for (size_t d = 0; d < n_delta; ++d) {
        if (delta_to_new_[d] != kInvalidRowId) {
          column_values[delta_to_new_[d]] = delta_rows[d][c];
        }
      }
      segments.push_back(
          ColumnSegment::Build(schema.column(c).type, column_values));
    }

    new_main_ = std::make_shared<MainFragment>(
        std::move(segments), n_new, merge_ts_, std::move(new_insert_ts));
    for (const CarriedDelete& cd : carried) {
      new_main_->MarkDeleted(cd.new_rid, cd.ts);
    }
  }

  void Publish() {
    std::unique_lock index_lock(t_->index_mu_);

    // Deletes that committed during Build targeted the old structures (the
    // key index still pointed there). Re-read and forward them.
    std::unordered_map<RowId, Timestamp> main_deletes_now;
    old_main_->SnapshotDeletes(&main_deletes_now);
    for (const auto& [rid, ts] : main_deletes_now) {
      auto before = main_deletes_at_build_.find(rid);
      if (before != main_deletes_at_build_.end() && before->second <= ts) {
        continue;  // already carried (or dropped pre-horizon)
      }
      if (main_to_new_[rid] != kInvalidRowId) {
        new_main_->MarkDeleted(main_to_new_[rid], ts);
      }
    }
    std::vector<Timestamp> unused_ins, delta_deletes_now;
    frozen_->SnapshotTimestamps(&unused_ins, &delta_deletes_now);
    for (size_t d = 0; d < delta_deletes_now.size(); ++d) {
      if (delta_deletes_now[d] != kMaxTimestamp &&
          delta_deletes_at_build_[d] == kMaxTimestamp &&
          delta_to_new_[d] != kInvalidRowId) {
        new_main_->MarkDeleted(delta_to_new_[d], delta_deletes_now[d]);
      }
    }

    if (t_->keyed_) RemapIndex();

    std::lock_guard<std::mutex> snap_lock(t_->snap_mu_);
    t_->main_ = new_main_;
    t_->frozen_delta_.reset();
  }

  // Rewrites the key index in one pass over its dense arrays: old-main and
  // frozen-delta versions now live in the new main (or are gone), and the
  // older-version chains are rebuilt compactly. A key left with no version
  // must disappear, as if never written (LastWriteTs 0), so deletes cannot
  // grow the index without bound; when the merge found such keys, the
  // KeyIndex is rebuilt from the surviving ids with their stored hashes.
  // Caller holds the exclusive index lock.
  void RemapIndex() {
    using Location = ColumnTable::Location;
    using OlderVersion = ColumnTable::OlderVersion;
    constexpr uint32_t kNoOlder = ColumnTable::kNoOlder;
    auto remap = [&](const Location& loc, Location* out) {
      RowId mapped;
      if (!loc.in_delta) {
        mapped = main_to_new_[loc.idx];
      } else if (loc.gen == frozen_gen_) {
        mapped = delta_to_new_[loc.idx];
      } else {
        *out = loc;  // current delta, untouched
        return true;
      }
      if (mapped == kInvalidRowId) return false;
      *out = Location{false, 0, mapped};
      return true;
    };

    std::vector<ColumnTable::KeyEntry>& entries = t_->entries_;
    const std::vector<OlderVersion>& old_older = t_->older_;
    std::vector<OlderVersion> older;
    std::vector<bool> dead(entries.size(), false);
    size_t num_dead = 0;
    for (size_t id = 0; id < entries.size(); ++id) {
      ColumnTable::KeyEntry& e = entries[id];
      // Each version was deleted no later than the next one was written,
      // so a dropped newest version means every version was dropped.
      if (!remap(e.newest, &e.newest)) {
        dead[id] = true;
        ++num_dead;
        continue;
      }
      uint32_t head = kNoOlder, prev = kNoOlder;
      for (uint32_t v = e.older; v != kNoOlder; v = old_older[v].next) {
        Location loc;
        if (!remap(old_older[v].loc, &loc)) continue;
        uint32_t at = static_cast<uint32_t>(older.size());
        older.push_back(OlderVersion{loc, kNoOlder});
        (prev == kNoOlder ? head : older[prev].next) = at;
        prev = at;
      }
      e.older = head;
    }
    t_->older_ = std::move(older);
    if (num_dead == 0) return;

    const KeyIndex& old_index = t_->key_index_;
    KeyIndex index;
    index.Reserve(entries.size() - num_dead);
    std::vector<ColumnTable::KeyEntry> kept;
    kept.reserve(entries.size() - num_dead);
    for (size_t id = 0; id < entries.size(); ++id) {
      if (dead[id]) continue;
      uint32_t old_id = static_cast<uint32_t>(id);
      bool inserted = false;
      index.FindOrInsert(old_index.key(old_id), old_index.hash(old_id),
                         &inserted);
      kept.push_back(entries[id]);
    }
    t_->key_index_ = std::move(index);
    entries = std::move(kept);
  }

  ColumnTable* t_;
  const Timestamp merge_ts_;
  const Timestamp horizon_;

  std::shared_ptr<MainFragment> old_main_;
  std::shared_ptr<DeltaStore> frozen_;
  uint32_t frozen_gen_ = 0;

  std::unordered_map<RowId, Timestamp> main_deletes_at_build_;
  std::vector<Timestamp> delta_insert_ts_;
  std::vector<Timestamp> delta_deletes_at_build_;
  std::vector<RowId> main_to_new_;
  std::vector<RowId> delta_to_new_;
  std::shared_ptr<MainFragment> new_main_;
};

size_t ColumnTable::MergeDelta(Timestamp merge_ts, Timestamp gc_horizon) {
  MergeJob job(this, merge_ts, gc_horizon);
  return job.Run();
}

}  // namespace oltap
