#include "exec/parallel/morsel.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace oltap {

void RunOnWorkers(ThreadPool* pool, size_t dop,
                  const std::function<void(size_t)>& worker) {
  if (pool == nullptr || dop <= 1) {
    worker(0);
    return;
  }
  size_t helpers = dop - 1;
  // Completion is counted under a mutex, not an atomic: the waiter must not
  // observe the final count — and destroy this frame — while a finishing
  // helper still touches the captured state (same pattern as
  // ThreadPool::ParallelForChunked).
  size_t done = 0;
  std::mutex done_mu;
  std::condition_variable done_cv;
  for (size_t w = 1; w <= helpers; ++w) {
    pool->Submit([&, w] {
      worker(w);
      std::lock_guard<std::mutex> lock(done_mu);
      if (++done == helpers) done_cv.notify_all();
    });
  }
  worker(0);
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done == helpers; });
}

// ----------------------------------------------------------- DriveAccount

void DriveAccount::Emit(const MorselSink& sink, size_t slot, Batch&& batch) {
  rows_.fetch_add(batch.num_rows(), std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  uint64_t t0 = obs::MonotonicNanos();
  sink(slot, std::move(batch));
  sink_ns_.fetch_add(obs::MonotonicNanos() - t0, std::memory_order_relaxed);
}

uint64_t DriveAccount::InclusiveNs(const DriveTiming& t) const {
  if (t.busy_ns == 0) return 0;
  uint64_t sink = std::min(sink_ns_.load(std::memory_order_relaxed),
                           t.busy_ns);
  return static_cast<uint64_t>(static_cast<double>(t.wall_ns) *
                               static_cast<double>(t.busy_ns - sink) /
                               static_cast<double>(t.busy_ns));
}

// ------------------------------------------------------------- SlotBuffer

void SlotBuffer::Reset(size_t num_slots) {
  slots_.clear();
  slots_.resize(num_slots);
  slot_ = 0;
  idx_ = 0;
}

void SlotBuffer::Append(size_t slot, Batch&& batch) {
  OLTAP_CHECK(slot < slots_.size());
  slots_[slot].push_back(std::move(batch));
}

bool SlotBuffer::Next(Batch* out) {
  while (slot_ < slots_.size()) {
    if (idx_ < slots_[slot_].size()) {
      *out = std::move(slots_[slot_][idx_]);
      ++idx_;
      return true;
    }
    slots_[slot_].clear();
    ++slot_;
    idx_ = 0;
  }
  return false;
}

// -------------------------------------------------------- ParallelFilterOp

ParallelFilterOp::ParallelFilterOp(PhysicalOpPtr child, ExprPtr predicate,
                                   ParallelContext ctx)
    : child_(std::move(child)),
      predicate_(std::move(predicate)),
      ctx_(ctx) {
  child_src_ = dynamic_cast<MorselSource*>(child_.get());
  OLTAP_CHECK(child_src_ != nullptr);
  OLTAP_CHECK(predicate_ != nullptr);
}

void ParallelFilterOp::Prepare() { child_src_->PrepareMorsels(); }

size_t ParallelFilterOp::slots() const { return child_src_->slots(); }

DriveTiming ParallelFilterOp::Drive(const MorselSink& sink) {
  return DriveInternal(sink, /*account=*/true);
}

DriveTiming ParallelFilterOp::DriveInternal(const MorselSink& sink,
                                            bool account) {
  PrepareMorsels();
  DriveAccount acct;
  DriveTiming t = child_src_->Drive([&](size_t slot, Batch&& in) {
    BitVector keep;
    predicate_->EvalPredicate(in, &keep);
    if (keep.CountSet() == 0) return;
    Batch out;
    out.columns.reserve(in.num_columns());
    for (const ColumnVector& col : in.columns) {
      out.columns.emplace_back(col.type());
      out.columns.back().AppendSelected(col, keep);
    }
    acct.Emit(sink, slot, std::move(out));
  });
  if (account) {
    AccountDriven(acct.rows(), acct.batches(),
                  prepare_ns() + acct.InclusiveNs(t));
  }
  return t;
}

void ParallelFilterOp::Open() {
  PrepareMorsels();
  buf_.Reset(slots());
  DriveInternal(
      [this](size_t slot, Batch&& b) { buf_.Append(slot, std::move(b)); },
      /*account=*/false);
}

bool ParallelFilterOp::NextBatch(Batch* out) { return buf_.Next(out); }

std::vector<ValueType> ParallelFilterOp::OutputTypes() const {
  return child_->OutputTypes();
}

std::string ParallelFilterOp::Describe() const {
  return "ParallelFilter(" + predicate_->ToString() +
         ", dop=" + std::to_string(ctx_.dop) + ")";
}

std::vector<const PhysicalOp*> ParallelFilterOp::Children() const {
  return {child_.get()};
}

}  // namespace oltap
