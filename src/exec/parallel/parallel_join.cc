#include "exec/parallel/parallel_join.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>

#include "common/logging.h"
#include "obs/metrics.h"

namespace oltap {

ParallelHashJoinOp::ParallelHashJoinOp(PhysicalOpPtr build,
                                       PhysicalOpPtr probe,
                                       std::vector<int> build_keys,
                                       std::vector<int> probe_keys,
                                       ParallelContext ctx,
                                       std::vector<int> output)
    : build_(std::move(build)),
      probe_(std::move(probe)),
      build_keys_(std::move(build_keys)),
      probe_keys_(std::move(probe_keys)),
      ctx_(ctx),
      out_(std::move(output), build_->OutputTypes(), probe_->OutputTypes()) {
  OLTAP_CHECK(build_keys_.size() == probe_keys_.size());
  probe_src_ = dynamic_cast<MorselSource*>(probe_.get());
  OLTAP_CHECK(probe_src_ != nullptr);
}

std::vector<ValueType> ParallelHashJoinOp::OutputTypes() const {
  return out_.types();
}

void ParallelHashJoinOp::BuildTable() {
  build_side_ = CollectBatch(build_.get());
  size_t n = build_side_.num_rows();
  nparts_ = std::max<size_t>(1, ctx_.dop);
  parts_.assign(nparts_, {});
  if (n == 0) return;

  // Chunks of [0, count) claimed by up to dop workers, the query thread
  // included.
  auto for_chunks = [&](size_t count, size_t chunk,
                        const std::function<void(size_t, size_t)>& fn) {
    std::atomic<size_t> next{0};
    RunOnWorkers(ctx_.pool, ctx_.dop, [&](size_t) {
      for (size_t b = next.fetch_add(chunk); b < count;
           b = next.fetch_add(chunk)) {
        fn(b, std::min(count, b + chunk));
      }
    });
  };
  const std::vector<const ColumnVector*> key_cols =
      KeyColumns(build_side_, build_keys_);
  // Phase 1: hash every build key once.
  std::vector<uint64_t> hashes(n);
  std::vector<uint8_t> valid(n, 0);
  for_chunks(n, kDefaultBatchRows, [&](size_t begin, size_t end) {
    std::string key;
    for (size_t i = begin; i < end; ++i) {
      if (EncodeKeyAt(key_cols, i, &key)) continue;  // NULLs never join
      hashes[i] = KeyIndex::Hash(key);
      valid[i] = 1;
    }
  });
  // Phase 2: one worker per partition; each partition scans the hash array
  // and inserts its rows in ascending build-row order.
  for_chunks(nparts_, 1, [&](size_t p, size_t) {
    JoinTable& part = parts_[p];
    std::string key;
    for (size_t i = 0; i < n; ++i) {
      if (!valid[i] || hashes[i] % nparts_ != p) continue;
      EncodeKeyAt(key_cols, i, &key);
      part.Add(key, hashes[i], static_cast<uint32_t>(i));
    }
    part.Finish();
  });
}

void ParallelHashJoinOp::Prepare() {
  probe_src_->PrepareMorsels();
  BuildTable();
}

size_t ParallelHashJoinOp::slots() const { return probe_src_->slots(); }

void ParallelHashJoinOp::JoinBatch(size_t slot, const Batch& in,
                                   const MorselSink& sink,
                                   DriveAccount* acct) const {
  // Matches are collected and emitted column by column, flushed once a
  // batch's worth has matched (a probe row's matches stay together).
  std::vector<uint32_t> build_rows, probe_rows;
  auto flush = [&] {
    if (build_rows.empty()) return;
    Batch out = EmptyBatch(out_.types());
    out_.Append(build_side_, build_rows, in, probe_rows, &out);
    acct->Emit(sink, slot, std::move(out));
    build_rows.clear();
    probe_rows.clear();
  };
  const std::vector<const ColumnVector*> key_cols =
      KeyColumns(in, probe_keys_);
  std::string key;
  for (size_t i = 0; i < in.num_rows(); ++i) {
    if (EncodeKeyAt(key_cols, i, &key)) continue;
    uint64_t hash = KeyIndex::Hash(key);
    auto [first, last] = parts_[hash % nparts_].Find(key, hash);
    for (const uint32_t* b = first; b != last; ++b) {
      build_rows.push_back(*b);
      probe_rows.push_back(static_cast<uint32_t>(i));
    }
    if (build_rows.size() >= kDefaultBatchRows) flush();
  }
  flush();
}

DriveTiming ParallelHashJoinOp::Drive(const MorselSink& sink) {
  return DriveInternal(sink, /*account=*/true);
}

DriveTiming ParallelHashJoinOp::DriveInternal(const MorselSink& sink,
                                              bool account) {
  PrepareMorsels();
  DriveAccount acct;
  DriveTiming t = probe_src_->Drive([&](size_t slot, Batch&& in) {
    JoinBatch(slot, in, sink, &acct);
  });
  if (account) {
    AccountDriven(acct.rows(), acct.batches(),
                  prepare_ns() + acct.InclusiveNs(t));
  }
  return t;
}

void ParallelHashJoinOp::Open() {
  PrepareMorsels();
  buf_.Reset(slots());
  DriveInternal(
      [this](size_t slot, Batch&& b) { buf_.Append(slot, std::move(b)); },
      /*account=*/false);
}

bool ParallelHashJoinOp::NextBatch(Batch* out) { return buf_.Next(out); }

std::string ParallelHashJoinOp::Describe() const {
  std::string out = "ParallelHashJoin(keys=";
  for (size_t i = 0; i < build_keys_.size(); ++i) {
    if (i > 0) out += ",";
    out += "$" + std::to_string(build_keys_[i]) + "=$" +
           std::to_string(probe_keys_[i]);
  }
  return out + out_.Describe() + ", dop=" + std::to_string(ctx_.dop) + ")";
}

std::vector<const PhysicalOp*> ParallelHashJoinOp::Children() const {
  return {build_.get(), probe_.get()};
}

}  // namespace oltap
