#ifndef OLTAP_EXEC_PARALLEL_PARALLEL_AGG_H_
#define OLTAP_EXEC_PARALLEL_PARALLEL_AGG_H_

#include <string>
#include <vector>

#include "exec/parallel/morsel.h"

namespace oltap {

// Morsel-parallel hash aggregation: the child (a MorselSource) feeds each
// slot into its own AggAccumulator — worker-local, no sharing — and after
// the drive the per-slot accumulators merge in ascending slot order.
// Since slot order is the serial row-stream order, groups are kept in
// first-seen order, and every aggregate merges exactly (float sums are
// held exact until finalized), the output is byte-identical to the serial
// HashAggOp at any DOP.
class ParallelHashAggOp final : public PhysicalOp {
 public:
  // `child` must implement MorselSource.
  ParallelHashAggOp(PhysicalOpPtr child, std::vector<ExprPtr> group_exprs,
                    std::vector<AggSpec> aggs, ParallelContext ctx);

  void Open() override;
  bool NextBatch(Batch* out) override;
  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> Children() const override;

 private:
  PhysicalOpPtr child_;
  MorselSource* src_ = nullptr;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  ParallelContext ctx_;

  AggAccumulator merged_{&group_exprs_, &aggs_};
  size_t emit_pos_ = 0;
};

}  // namespace oltap

#endif  // OLTAP_EXEC_PARALLEL_PARALLEL_AGG_H_
