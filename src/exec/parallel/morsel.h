#ifndef OLTAP_EXEC_PARALLEL_MORSEL_H_
#define OLTAP_EXEC_PARALLEL_MORSEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/thread_pool.h"
#include "exec/batch.h"

namespace oltap {

// Morsel-driven parallelism (HyPer-style): the leaf of a pipeline splits
// its input into fixed-row morsels, workers pull morsels from a shared
// atomic cursor, and every operator fused into the pipeline runs inside
// the worker on that morsel's batches with worker-local state. At DOP 1
// the one worker is the query thread itself and the pool is never touched.
//
// Determinism contract: morsel index == slot index == position of that
// morsel's rows in the scan order. Consumers either merge per-run state in
// ascending slot order (aggregate) or concatenate slot output in ascending
// slot order (pulled mode), so the visible row stream is byte-identical at
// any DOP.

// Rows of the main fragment per morsel. A multiple of the 1024-row zone
// size and of kDefaultBatchRows; small enough that a morsel's gathered
// batches stay cache-friendly, large enough to amortize dispatch.
inline constexpr size_t kMorselRows = 8192;

// Tables below this approximate cardinality are not worth parallelizing
// (the prepare phase on the query thread would dominate).
inline constexpr size_t kMinParallelScanRows = 4096;

// Execution resources granted to one pipeline: the shared worker pool and
// the degree of parallelism (total workers, *including* the query thread —
// the caller always participates, so dop=1 runs inline and a saturated
// pool can never stall a query).
struct ParallelContext {
  ThreadPool* pool = nullptr;
  size_t dop = 1;
};

// Slot-indexed batch sink. May be invoked concurrently from different
// workers, but all batches of one slot come from a single worker, in
// order. `run` is the first slot of the run of consecutive slots the
// producing worker claimed: batches of one run come from one worker in
// slot order, so a consumer may fold a whole run into one piece of state.
using MorselSink =
    std::function<void(size_t run, size_t slot, Batch&& batch)>;

// What the leaf of a fused pipeline measured over one drive: its wall
// time and the total worker time inside it (the sum over workers).
struct DriveTiming {
  uint64_t wall_ns = 0;
  uint64_t busy_ns = 0;
};

// EXPLAIN ANALYZE accounting of a fused operator. Its sink runs the
// downstream operators' work inside the same workers, so the operator
// counts what it emits and times every call into the sink; its inclusive
// time is then its prepare plus the share of the drive's wall time
// that its workers spent outside the sink (itself and its upstream).
// Downstream operators keep the rest, so every EXPLAIN ANALYZE self time
// stays >= 0 and the self times add up to the root's total.
class DriveAccount {
 public:
  // Calls sink(run, slot, batch), counting the batch and timing the call.
  void Emit(const MorselSink& sink, size_t run, size_t slot, Batch&& batch);
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

// Runs worker(worker_index) on `dop` workers total: dop-1 pool tasks plus
// the calling thread (index 0), returning once all have finished. With a
// null pool or dop <= 1 the caller runs alone. Workers must not submit
// further pool work (queries run on scheduler threads, never on the exec
// pool itself, so morsel draining cannot deadlock).
void RunOnWorkers(ThreadPool* pool, size_t dop,
                  const std::function<void(size_t)>& worker);

// The leaf's dispatch loop: slots [begin, end) are claimed from an atomic
// cursor by up to ctx.dop workers (never more workers than slots), and
// produce(run, slot) runs for each on the claiming worker. Returns the
// drive's wall time and summed worker time.
DriveTiming DriveSlots(const ParallelContext& ctx, size_t begin, size_t end,
                       const std::function<void(size_t run, size_t slot)>&
                           produce);

// Slot store of a pulled source's current window of slots: workers append
// batches to their slot concurrently (the slot vector is pre-sized,
// distinct slots never alias), then Next streams the window in ascending
// slot order — the row stream.
class SlotBuffer {
 public:
  // Holds slots [first, first + num_slots).
  void Reset(size_t first, size_t num_slots);
  void Append(size_t slot, Batch&& batch);
  // Streams the next non-empty batch in slot order; false when exhausted.
  bool Next(Batch* out);

 private:
  std::vector<std::vector<Batch>> slots_;
  size_t first_ = 0;
  size_t slot_ = 0;
  size_t idx_ = 0;
};

}  // namespace oltap

#endif  // OLTAP_EXEC_PARALLEL_MORSEL_H_
