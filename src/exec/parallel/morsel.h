#ifndef OLTAP_EXEC_PARALLEL_MORSEL_H_
#define OLTAP_EXEC_PARALLEL_MORSEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "exec/batch.h"
#include "exec/operators.h"

namespace oltap {

// Morsel-driven parallelism (HyPer-style): the leaf of a parallel pipeline
// splits its input into fixed-row morsels, workers pull morsels from a
// shared atomic cursor, and every operator fused into the pipeline runs
// inside the worker on that morsel's batches with worker-local state.
//
// Determinism contract: morsel index == slot index == position of that
// morsel's rows in the *serial* scan order. Consumers either merge
// per-slot state in ascending slot order (parallel aggregate) or
// concatenate slot output in ascending slot order (materialized mode), so
// the visible row stream is byte-identical to serial execution at any DOP.

// Rows of the main fragment per morsel. A multiple of the 1024-row zone
// size and of kDefaultBatchRows; small enough that a morsel's gathered
// batches stay cache-friendly, large enough to amortize dispatch.
inline constexpr size_t kMorselRows = 8192;

// Tables below this approximate cardinality are not worth parallelizing
// (the serial prepare phase would dominate).
inline constexpr size_t kMinParallelScanRows = 4096;

// Execution resources granted to one query: the shared worker pool and the
// degree of parallelism (total workers, *including* the query thread — the
// caller always participates, so dop=1 degenerates to inline serial work
// and a saturated pool can never stall a query).
struct ParallelContext {
  ThreadPool* pool = nullptr;
  size_t dop = 1;
};

// Slot-indexed batch sink. May be invoked concurrently from different
// workers, but all batches of one slot come from a single worker, in
// order.
using MorselSink = std::function<void(size_t slot, Batch&& batch)>;

// What the leaf of a fused pipeline measured over one drive: its wall
// time and the total worker time inside it (the sum over workers).
struct DriveTiming {
  uint64_t wall_ns = 0;
  uint64_t busy_ns = 0;
};

// EXPLAIN ANALYZE accounting of a fused operator. Its sink runs the
// downstream operators' work inside the same workers, so the operator
// counts what it emits and times every call into the sink; its inclusive
// time is then its serial prepare plus the share of the drive's wall time
// that its workers spent outside the sink (itself and its upstream).
// Downstream operators keep the rest, so every EXPLAIN ANALYZE self time
// stays >= 0 and the self times add up to the root's total.
class DriveAccount {
 public:
  // Calls sink(slot, batch), counting the batch and timing the call.
  void Emit(const MorselSink& sink, size_t slot, Batch&& batch);
  uint64_t rows() const { return rows_.load(std::memory_order_relaxed); }
  uint64_t batches() const {
    return batches_.load(std::memory_order_relaxed);
  }
  // Wall-time share of the operator and its upstream over `t`.
  uint64_t InclusiveNs(const DriveTiming& t) const;

 private:
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> sink_ns_{0};
};

// A pipeline stage that can produce its output morsel-parallel. Every
// implementation is also a PhysicalOp whose Open()/NextBatch() fall back
// to materializing the slots and streaming them in slot order (used when
// the parent operator is serial).
class MorselSource {
 public:
  virtual ~MorselSource() = default;

  // Serial preparation on the query thread (snapshot, pushdown, hash
  // build). After this, slots() is valid. Idempotent; the first call's
  // wall time is kept for EXPLAIN ANALYZE.
  void PrepareMorsels() {
    if (prepared_) return;
    prepared_ = true;
    uint64_t t0 = obs::MonotonicNanos();
    Prepare();
    prepare_ns_ = obs::MonotonicNanos() - t0;
  }
  uint64_t prepare_ns() const { return prepare_ns_; }

  // Number of output slots (morsels) this source will produce.
  virtual size_t slots() const = 0;

  // Produces every slot, calling `sink` from up to dop workers. Returns
  // after all slots are produced (worker completion synchronizes with the
  // return, so the caller may read sink-written state without locks),
  // with the leaf's timing of the drive.
  virtual DriveTiming Drive(const MorselSink& sink) = 0;

 protected:
  // The preparation itself (runs once, from PrepareMorsels).
  virtual void Prepare() = 0;

 private:
  bool prepared_ = false;
  uint64_t prepare_ns_ = 0;
};

// Runs worker(worker_index) on `dop` workers total: dop-1 pool tasks plus
// the calling thread (index 0), returning once all have finished. With a
// null pool or dop <= 1 the caller runs alone. Workers must not submit
// further pool work (queries run on scheduler threads, never on the exec
// pool itself, so morsel draining cannot deadlock).
void RunOnWorkers(ThreadPool* pool, size_t dop,
                  const std::function<void(size_t)>& worker);

// Materialized slot store backing the PhysicalOp mode of every
// MorselSource: workers append batches to their slot concurrently (the
// slot vector is pre-sized, distinct slots never alias), then NextBatch
// streams slots in ascending order — the serial row stream.
class SlotBuffer {
 public:
  void Reset(size_t num_slots);
  void Append(size_t slot, Batch&& batch);
  // Streams the next non-empty batch in slot order; false when exhausted.
  bool Next(Batch* out);

 private:
  std::vector<std::vector<Batch>> slots_;
  size_t slot_ = 0;
  size_t idx_ = 0;
};

// Morsel-parallel residual filter: fused pass-through over the child's
// morsel stream (same batch-wise predicate gather as the serial FilterOp,
// so the surviving row stream is identical).
class ParallelFilterOp final : public PhysicalOp, public MorselSource {
 public:
  // `child` must implement MorselSource.
  ParallelFilterOp(PhysicalOpPtr child, ExprPtr predicate,
                   ParallelContext ctx);

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

  PhysicalOpPtr child_;
  MorselSource* child_src_ = nullptr;
  ExprPtr predicate_;
  ParallelContext ctx_;
  SlotBuffer buf_;
};

}  // namespace oltap

#endif  // OLTAP_EXEC_PARALLEL_MORSEL_H_
