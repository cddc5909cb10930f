#include "exec/parallel/parallel_agg.h"

#include "common/logging.h"

namespace oltap {

ParallelHashAggOp::ParallelHashAggOp(PhysicalOpPtr child,
                                     std::vector<ExprPtr> group_exprs,
                                     std::vector<AggSpec> aggs,
                                     ParallelContext ctx)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)),
      ctx_(ctx) {
  src_ = dynamic_cast<MorselSource*>(child_.get());
  OLTAP_CHECK(src_ != nullptr);
}

std::vector<ValueType> ParallelHashAggOp::OutputTypes() const {
  return AggOutputTypes(group_exprs_, aggs_);
}

void ParallelHashAggOp::Open() {
  merged_.Clear();
  emit_pos_ = 0;

  src_->PrepareMorsels();
  size_t num_slots = src_->slots();
  // One accumulator per slot: a slot is produced entirely by one worker,
  // so each accumulator is mutated by exactly one thread during the drive.
  std::vector<AggAccumulator> accs(
      num_slots, AggAccumulator(&group_exprs_, &aggs_));
  src_->Drive([&accs](size_t slot, Batch&& batch) {
    accs[slot].Consume(batch);
  });
  // Slot order == serial row-stream order, so merging ascending
  // reproduces the serial first-seen group order exactly.
  for (const AggAccumulator& a : accs) merged_.MergeFrom(a);
}

bool ParallelHashAggOp::NextBatch(Batch* out) {
  return merged_.EmitBatch(&emit_pos_, out);
}

std::string ParallelHashAggOp::Describe() const {
  return "ParallelHashAggregate(groups=" +
         std::to_string(group_exprs_.size()) +
         ", aggs=" + std::to_string(aggs_.size()) +
         ", dop=" + std::to_string(ctx_.dop) + ")";
}

std::vector<const PhysicalOp*> ParallelHashAggOp::Children() const {
  return {child_.get()};
}

}  // namespace oltap
