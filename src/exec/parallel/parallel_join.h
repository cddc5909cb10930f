#ifndef OLTAP_EXEC_PARALLEL_PARALLEL_JOIN_H_
#define OLTAP_EXEC_PARALLEL_PARALLEL_JOIN_H_

#include <atomic>
#include <string>
#include <vector>

#include "exec/parallel/morsel.h"

namespace oltap {

// Morsel-parallel inner equi-join. The build side is materialized once
// (columnar), then the hash table is built in two parallel phases on the
// query's workers: (1) per-row key encoding (EncodeKeyAt) + hashing, (2) one worker per
// partition inserting its rows in ascending build-row order (each key
// lands in exactly one partition, so insertion order per key matches the
// serial build — the serial HashJoinOp emits duplicate-key matches in
// ascending build-row order too). The probe side must be a MorselSource;
// each probe morsel is joined inside the worker that produced it against
// the shared read-only partitioned table, preserving the probe row order
// within its slot. Output row stream == serial HashJoinOp at any DOP.
class ParallelHashJoinOp final : public PhysicalOp, public MorselSource {
 public:
  // `probe` must implement MorselSource.
  // `output`: as HashJoinOp's (ascending build ++ probe positions,
  // empty = all).
  ParallelHashJoinOp(PhysicalOpPtr build, PhysicalOpPtr probe,
                     std::vector<int> build_keys,
                     std::vector<int> probe_keys, ParallelContext ctx,
                     std::vector<int> output = {});

  void Open() override;
  bool NextBatch(Batch* out) override;
  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> Children() const override;

  size_t slots() const override;
  DriveTiming Drive(const MorselSink& sink) override;

 private:
  void Prepare() override;
  DriveTiming DriveInternal(const MorselSink& sink, bool account);
  void BuildTable();
  // Joins one probe batch, sinking output in kDefaultBatchRows chunks.
  void JoinBatch(size_t slot, const Batch& in, const MorselSink& sink,
                 DriveAccount* acct) const;

  PhysicalOpPtr build_;
  PhysicalOpPtr probe_;
  MorselSource* probe_src_ = nullptr;
  std::vector<int> build_keys_;
  std::vector<int> probe_keys_;
  ParallelContext ctx_;
  JoinProjection out_;

  Batch build_side_;  // the materialized build input, columnar
  size_t nparts_ = 1;
  // Partition p owns keys with hash(key) % nparts_ == p; per-key match
  // lists are in ascending build-row order.
  std::vector<JoinTable> parts_;

  SlotBuffer buf_;
};

}  // namespace oltap

#endif  // OLTAP_EXEC_PARALLEL_PARALLEL_JOIN_H_
