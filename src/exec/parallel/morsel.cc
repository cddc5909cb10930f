#include "exec/parallel/morsel.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "obs/trace.h"

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

DriveTiming DriveSlots(const ParallelContext& ctx, size_t begin, size_t end,
                       const std::function<void(size_t, size_t)>& produce) {
  std::atomic<size_t> cursor{begin};
  std::atomic<uint64_t> busy_ns{0};
  const uint64_t t0 = obs::MonotonicNanos();
  size_t workers = std::min(ctx.dop, end > begin ? end - begin : 0);
  RunOnWorkers(ctx.pool, workers, [&](size_t) {
    uint64_t w0 = obs::MonotonicNanos();
    // A claim that does not follow this worker's previous one starts a
    // new run.
    size_t run = 0;
    size_t next = SIZE_MAX;
    for (size_t m = cursor.fetch_add(1, std::memory_order_relaxed); m < end;
         m = cursor.fetch_add(1, std::memory_order_relaxed)) {
      if (m != next) run = m;
      next = m + 1;
      produce(run, m);
    }
    busy_ns.fetch_add(obs::MonotonicNanos() - w0, std::memory_order_relaxed);
  });
  return {obs::MonotonicNanos() - t0, busy_ns.load()};
}

// ----------------------------------------------------------- DriveAccount

void DriveAccount::Emit(const MorselSink& sink, size_t run, size_t slot,
                        Batch&& batch) {
  rows_.fetch_add(batch.num_rows(), std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  uint64_t t0 = obs::MonotonicNanos();
  sink(run, slot, std::move(batch));
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

void SlotBuffer::Reset(size_t first, size_t num_slots) {
  slots_.clear();
  slots_.resize(num_slots);
  first_ = first;
  slot_ = 0;
  idx_ = 0;
}

void SlotBuffer::Append(size_t slot, Batch&& batch) {
  OLTAP_CHECK(slot >= first_ && slot - first_ < slots_.size());
  slots_[slot - first_].push_back(std::move(batch));
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

}  // namespace oltap
