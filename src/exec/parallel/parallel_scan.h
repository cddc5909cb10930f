#ifndef OLTAP_EXEC_PARALLEL_PARALLEL_SCAN_H_
#define OLTAP_EXEC_PARALLEL_PARALLEL_SCAN_H_

#include <atomic>
#include <optional>
#include <vector>

#include "common/bitvector.h"
#include "exec/parallel/morsel.h"
#include "storage/column_store.h"
#include "storage/table.h"

namespace oltap {

// Morsel-parallel columnar table scan. The *selection* phase — MVCC
// visibility mask plus zone-pruned pushdown kernels over whole segments —
// runs serially in PrepareMorsels() (cheap SWAR over packed data), then
// the expensive per-row work (typed gather of the needed columns only,
// residual predicate, projection; ColumnScanPlan) is parallelized: the main fragment is cut into
// kMorselRows-row morsels claimed from a shared atomic cursor, and the
// filtered delta/frozen rows (already collected during prepare, exactly
// as the serial ScanOp does) form one trailing slot. Slot m holds
// precisely the rows the serial ScanOp emits at that position, so
// slot-ordered consumption reproduces the serial row stream byte for
// byte at any DOP.
//
// Columnar tables only — the planner never builds this for row-format
// tables or the forced row path.
class ParallelScanOp final : public PhysicalOp, public MorselSource {
 public:
  ParallelScanOp(const Table* table, Timestamp read_ts, ExprPtr predicate,
                 std::vector<int> projection, ParallelContext ctx);

  void Open() override;
  bool NextBatch(Batch* out) override;
  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> Children() const override;

  size_t slots() const override;
  DriveTiming Drive(const MorselSink& sink) override;

  size_t rows_scanned() const { return rows_scanned_; }
  size_t zones_pruned() const { return zones_pruned_; }
  const Table* table() const { return table_; }

 private:
  void Prepare() override;
  DriveTiming DriveInternal(const MorselSink& sink, bool account);
  // Emits every batch of main-fragment morsel m (gather → residual →
  // project, in kDefaultBatchRows chunks).
  void ProduceMainMorsel(size_t m, const MorselSink& sink,
                         DriveAccount* acct) const;
  // Emits the trailing delta slot (filtered pending rows, projected).
  void ProduceDeltaSlot(size_t slot, const MorselSink& sink,
                        DriveAccount* acct) const;

  const Table* table_;
  Timestamp read_ts_;
  ExprPtr predicate_;
  std::vector<int> projection_;
  std::vector<ValueType> out_types_;
  ParallelContext ctx_;

  // Pushdown split + gather plan (shared with ScanOp).
  ColumnScanPlan plan_;

  std::optional<ColumnTable::Snapshot> snap_;
  BitVector main_sel_;
  Batch pending_;  // filtered, projected delta rows (the trailing slot)
  size_t num_main_morsels_ = 0;
  size_t num_slots_ = 0;

  size_t rows_scanned_ = 0;
  size_t zones_pruned_ = 0;

  SlotBuffer buf_;
};

}  // namespace oltap

#endif  // OLTAP_EXEC_PARALLEL_PARALLEL_SCAN_H_
