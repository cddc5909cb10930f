#include "exec/parallel/parallel_scan.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "obs/metrics.h"

namespace oltap {

ParallelScanOp::ParallelScanOp(const Table* table, Timestamp read_ts,
                               ExprPtr predicate,
                               std::vector<int> projection,
                               ParallelContext ctx)
    : table_(table),
      read_ts_(read_ts),
      predicate_(std::move(predicate)),
      projection_(std::move(projection)),
      ctx_(ctx) {
  OLTAP_CHECK(table_->column_table() != nullptr);
  const Schema& schema = table_->schema();
  if (projection_.empty()) {
    projection_.resize(schema.num_columns());
    std::iota(projection_.begin(), projection_.end(), 0);
  }
  out_types_.reserve(projection_.size());
  for (int c : projection_) {
    out_types_.push_back(schema.column(c).type);
  }
}

std::vector<ValueType> ParallelScanOp::OutputTypes() const {
  return out_types_;
}

void ParallelScanOp::Prepare() {
  snap_ = table_->GetColumnSnapshot(read_ts_);
  OLTAP_CHECK(snap_.has_value());
  plan_.Init(predicate_, projection_, table_->schema().num_columns());

  // Main-fragment selection: visibility mask, then zone-pruned pushdown
  // kernels over whole segments (cheap relative to the per-row gather that
  // the morsels parallelize).
  const MainFragment& main = *snap_->main;
  rows_scanned_ += main.num_rows();
  plan_.Select(main, read_ts_, &main_sel_, &zones_pruned_);

  // Delta (and frozen delta) rows: row-at-a-time with the full predicate,
  // in serial iteration order — they become the single trailing slot.
  pending_ = EmptyBatch(out_types_);
  rows_scanned_ +=
      CollectDeltaRows(*snap_, predicate_, projection_, &pending_);

  num_main_morsels_ = (main.num_rows() + kMorselRows - 1) / kMorselRows;
  num_slots_ = num_main_morsels_ + (pending_.num_rows() == 0 ? 0 : 1);
}

size_t ParallelScanOp::slots() const { return num_slots_; }

void ParallelScanOp::ProduceMainMorsel(size_t m, const MorselSink& sink,
                                       DriveAccount* acct) const {
  size_t begin = m * kMorselRows;
  size_t end = std::min(main_sel_.size(), begin + kMorselRows);

  size_t pos = main_sel_.FindNextSet(begin);
  std::vector<uint32_t> rids;
  rids.reserve(kDefaultBatchRows);
  while (pos < end) {
    rids.clear();
    while (pos < end && rids.size() < kDefaultBatchRows) {
      rids.push_back(static_cast<uint32_t>(pos));
      pos = main_sel_.FindNextSet(pos + 1);
    }
    // Same per-row work as ScanOp::EmitMainBatch.
    Batch out;
    plan_.EmitMain(*snap_->main, projection_, rids, &out);
    if (out.num_rows() == 0) continue;
    acct->Emit(sink, m, std::move(out));
  }
}

void ParallelScanOp::ProduceDeltaSlot(size_t slot, const MorselSink& sink,
                                      DriveAccount* acct) const {
  size_t n = pending_.num_rows();
  for (size_t base = 0; base < n; base += kDefaultBatchRows) {
    Batch out;
    out.AppendRows(pending_, base, std::min(n, base + kDefaultBatchRows));
    acct->Emit(sink, slot, std::move(out));
  }
}

DriveTiming ParallelScanOp::Drive(const MorselSink& sink) {
  return DriveInternal(sink, /*account=*/true);
}

DriveTiming ParallelScanOp::DriveInternal(const MorselSink& sink,
                                          bool account) {
  PrepareMorsels();
  static obs::Counter* dispatched =
      obs::MetricsRegistry::Default()->GetCounter("exec.morsel.dispatched");
  static obs::Counter* morsel_rows =
      obs::MetricsRegistry::Default()->GetCounter("exec.morsel.rows");

  std::atomic<size_t> cursor{0};
  std::atomic<uint64_t> busy_ns{0};
  DriveAccount acct;
  const uint64_t t0 = obs::MonotonicNanos();
  size_t total = num_slots_;
  RunOnWorkers(ctx_.pool, ctx_.dop, [&](size_t) {
    uint64_t w0 = obs::MonotonicNanos();
    for (size_t m = cursor.fetch_add(1, std::memory_order_relaxed);
         m < total; m = cursor.fetch_add(1, std::memory_order_relaxed)) {
      if (m < num_main_morsels_) {
        ProduceMainMorsel(m, sink, &acct);
      } else {
        ProduceDeltaSlot(m, sink, &acct);
      }
    }
    busy_ns.fetch_add(obs::MonotonicNanos() - w0, std::memory_order_relaxed);
  });
  DriveTiming t{obs::MonotonicNanos() - t0, busy_ns.load()};
  dispatched->Add(total);
  morsel_rows->Add(acct.rows());
  if (account) {
    AccountDriven(acct.rows(), acct.batches(),
                  prepare_ns() + acct.InclusiveNs(t));
  }
  return t;
}

void ParallelScanOp::Open() {
  PrepareMorsels();
  buf_.Reset(num_slots_);
  DriveInternal(
      [this](size_t slot, Batch&& b) { buf_.Append(slot, std::move(b)); },
      /*account=*/false);
}

bool ParallelScanOp::NextBatch(Batch* out) {
  out->columns.clear();
  return buf_.Next(out);
}

std::string ParallelScanOp::Describe() const {
  std::string out = "ParallelScan(" + table_->name() + " [" +
                    TableFormatToString(table_->format()) + "]";
  if (predicate_ != nullptr) out += ", pred=" + predicate_->ToString();
  out += DescribeProjection(table_->schema(), projection_);
  out += ", path=column, dop=" + std::to_string(ctx_.dop) + ")";
  return out;
}

std::vector<const PhysicalOp*> ParallelScanOp::Children() const {
  return {};
}

}  // namespace oltap
