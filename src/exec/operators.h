#ifndef OLTAP_EXEC_OPERATORS_H_
#define OLTAP_EXEC_OPERATORS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "common/exact_sum.h"
#include "exec/batch.h"
#include "exec/expr.h"
#include "exec/join_table.h"
#include "exec/parallel/morsel.h"
#include "obs/trace.h"
#include "storage/column_store.h"
#include "storage/table.h"

namespace oltap {

// Batch-iterator (vectorized Volcano) physical operator. Open() once, then
// NextBatch until it returns false. Scans, filters and hash joins are also
// morsel sources (MorselSource below): a consumer that can take their
// output slot by slot drives them on the query's workers instead.
//
// Parents and the executor drive children through the instrumented
// OpenTimed/NextBatchTimed entry points, so every operator accumulates
// rows/batches/inclusive-time into op_stats() — the raw material of
// EXPLAIN ANALYZE (obs::QueryProfile). The cost is one clock read per
// batch (~2k rows), compiled out under OLTAP_OBS_DISABLED.
class PhysicalOp {
 public:
  virtual ~PhysicalOp() = default;
  virtual void Open() = 0;
  // Fills `out` (cleared first) with up to kDefaultBatchRows rows; returns
  // false when exhausted (out may still carry a final partial batch).
  virtual bool NextBatch(Batch* out) = 0;
  virtual std::vector<ValueType> OutputTypes() const = 0;
  // One-line self-description for EXPLAIN output.
  virtual std::string Describe() const = 0;
  // Child operators, for plan-tree rendering.
  virtual std::vector<const PhysicalOp*> Children() const { return {}; }

  // Instrumented pull API: Open + NextBatch with per-operator profiling.
  void OpenTimed();
  bool NextBatchTimed(Batch* out);
  const obs::OpStats& op_stats() const { return stats_; }

  // Optimizer annotations. Negative (the default) means "no estimate":
  // EXPLAIN omits the annotation entirely, which keeps non-optimized
  // plans rendering byte-for-byte as they always have.
  void set_estimates(double est_rows, double est_cost) {
    est_rows_ = est_rows;
    est_cost_ = est_cost;
  }
  double est_rows() const { return est_rows_; }
  double est_cost() const { return est_cost_; }

 protected:
  // Morsel-driven (fused) execution produces rows inside Drive() without
  // going through NextBatchTimed; morsel sources account what their
  // workers produced here so EXPLAIN ANALYZE row counts stay meaningful.
  void AccountDriven(size_t rows, size_t batches, uint64_t ns) {
    stats_.rows += rows;
    stats_.batches += batches;
    stats_.next_ns += ns;
  }

 private:
  obs::OpStats stats_;
  double est_rows_ = -1;
  double est_cost_ = -1;
};

// Renders the operator tree, one indented line per node (EXPLAIN).
std::string ExplainPlan(const PhysicalOp* root);

// Builds the EXPLAIN ANALYZE profile from an executed plan: the operator
// tree annotated with each node's op_stats(). Call after the plan has run
// through the instrumented pull API.
obs::QueryProfile BuildQueryProfile(const PhysicalOp* root);

using PhysicalOpPtr = std::unique_ptr<PhysicalOp>;

// The columnar-scan plan of ScanOp: the pushdown split of the predicate
// into (column <op> const) kernels and a residual, the columns each
// main-fragment batch gathers (projection ∪ residual refs), and the
// residual remapped onto those gathered columns.
struct ColumnScanPlan {
  // `predicate` and `projection` use table-schema indexes.
  void Init(const ExprPtr& predicate, const std::vector<int>& projection,
            size_t num_schema_columns);
  // Main-fragment selection: MVCC visibility mask, then the zone-pruned
  // pushed kernels over whole segments.
  void Select(const MainFragment& main, Timestamp read_ts, BitVector* sel,
              size_t* zones_pruned) const;
  // Gathers the needed columns at the ascending row ids `rids` with typed
  // decode, applies the residual, and writes the projected survivors to
  // `out` (replaced).
  void EmitMain(const MainFragment& main, const std::vector<int>& projection,
                const std::vector<uint32_t>& rids, Batch* out) const;

  std::vector<Expr::ColumnPredicate> pushed;
  ExprPtr residual;
  std::vector<int> needed;           // sorted, unique
  std::vector<int> schema_to_batch;  // schema index -> gathered position
  ExprPtr residual_remapped;         // residual over gathered positions
};

// A batch with one empty column per type.
Batch EmptyBatch(const std::vector<ValueType>& types);

// Appends the `projection` cells of `row` to `out` if `row` passes
// `predicate` (null = every row).
void AppendIfPasses(const Row& row, const ExprPtr& predicate,
                    const std::vector<int>& projection, Batch* out);

// The row-at-a-time part of a columnar scan: appends the frozen-delta and
// delta rows visible in `snap` that pass `predicate`, projected, to `out`
// (in scan order); returns the number of visible rows examined. Only
// projected cells are copied, keeping the delta's read lock short.
size_t CollectDeltaRows(const ColumnTable::Snapshot& snap,
                        const ExprPtr& predicate,
                        const std::vector<int>& projection, Batch* out);

// "name(args)" at DOP 1, "Parallelname(args, dop=N)" above it: EXPLAIN
// shows the parallel form only where the planner granted workers.
std::string DescribeOp(const std::string& name, const std::string& args,
                       const ParallelContext& ctx);

// A pipeline stage that produces its output as numbered slots (morsels),
// each slot produced entirely by one worker. PrepareMorsels() runs once
// on the query thread (snapshot, pushdown, hash build) and fixes slots();
// then either
//  - a consumer drives it: Drive() produces slots on up to ctx.dop
//    workers, calling the consumer's sink inside them (fused pipeline), or
//  - a parent pulls it through Open()/NextBatch(): slots are produced in
//    windows of ctx.dop slots, one slot per worker, and streamed in slot
//    order. At DOP 1 the window is one slot, so a pulled source holds at
//    most one morsel's output at a time.
class MorselSource : public PhysicalOp {
 public:
  explicit MorselSource(ParallelContext ctx) : ctx_(ctx) {}

  void Open() final;
  bool NextBatch(Batch* out) final;

  // Idempotent; the first call's wall time is kept for EXPLAIN ANALYZE.
  void PrepareMorsels();
  // Number of output slots; valid after PrepareMorsels().
  virtual size_t slots() const = 0;
  // Produces slots [begin, min(end, slots())), calling `sink` from up to
  // ctx.dop workers, and returns after all of them are produced (worker
  // completion synchronizes with the return, so the caller may read
  // sink-written state without locks), with the leaf's timing. Accounts
  // what it emitted to op_stats().
  DriveTiming Drive(const MorselSink& sink, size_t begin = 0,
                    size_t end = SIZE_MAX);

  const ParallelContext& ctx() const { return ctx_; }

 protected:
  // The preparation itself (runs once, from PrepareMorsels).
  virtual void Prepare() = 0;
  // Produces slots [begin, end), emitting every batch through
  // acct->Emit(sink, ...).
  virtual DriveTiming Produce(size_t begin, size_t end,
                              const MorselSink& sink, DriveAccount* acct) = 0;

 private:
  ParallelContext ctx_;
  bool prepared_ = false;
  bool prepare_accounted_ = false;
  uint64_t prepare_ns_ = 0;
  // Pulled mode: the produced window and the first slot after it.
  SlotBuffer window_;
  size_t next_slot_ = 0;
};

// The input of a consuming operator, driven like a morsel source: a
// MorselSource drives its slots; any other operator (an aggregate under
// HAVING, a projection under DISTINCT) is one slot, pulled on the driving
// thread.
class ChildSource {
 public:
  explicit ChildSource(PhysicalOp* op)
      : op_(op), src_(dynamic_cast<MorselSource*>(op)) {}

  void Prepare();
  size_t slots() const;
  DriveTiming Drive(const MorselSink& sink, size_t begin = 0,
                    size_t end = SIZE_MAX);

 private:
  PhysicalOp* op_;
  MorselSource* src_;
};

// Morsel-driven table scan with predicate pushdown. Prepare takes the
// snapshot and runs the selection — MVCC visibility mask plus zone-pruned
// (column <op> const) kernels over whole packed segments — and collects
// the visible delta rows that pass the predicate. Each main-fragment
// morsel of kMorselRows rows is then one slot: typed gather of the needed
// columns only, residual predicate, projection (ColumnScanPlan). The
// filtered delta rows form one trailing slot. A row table, or a dual
// table read with Path::kRow, is a row-wise visible scan collected into
// one slot the same way.
//
// `predicate` refers to columns by *table schema* index; `projection`
// selects and orders the output columns (empty = all columns). The
// optimizer passes the columns the statement references, so a scan reads
// only those; EXPLAIN lists them as cols=[...] when that is not the full
// width.
class ScanOp final : public MorselSource {
 public:
  // Which mirror of a dual-format table to read. kAuto is the historical
  // behavior (column side whenever the format has one); the optimizer
  // resolves dual tables to an explicit side, and benches force the
  // wrong one to measure the access-path gap.
  enum class Path : uint8_t { kAuto, kRow, kColumn };

  ScanOp(const Table* table, Timestamp read_ts, ExprPtr predicate,
         std::vector<int> projection = {}, Path path = Path::kAuto,
         ParallelContext ctx = {});

  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  size_t slots() const override {
    return num_main_morsels_ + (tail_.num_rows() > 0 ? 1 : 0);
  }

  // Scan statistics for tests/benches.
  size_t rows_scanned() const { return rows_scanned_; }
  size_t zones_pruned() const { return zones_pruned_; }
  const Table* table() const { return table_; }
  Path path() const { return path_; }

 private:
  void Prepare() override;
  DriveTiming Produce(size_t begin, size_t end, const MorselSink& sink,
                      DriveAccount* acct) override;
  // Emits every batch of main-fragment morsel m (gather → residual →
  // project, in kDefaultBatchRows chunks).
  void ProduceMainMorsel(size_t run, size_t m, const MorselSink& sink,
                         DriveAccount* acct) const;
  // Emits the trailing slot (the collected rows, in batches).
  void ProduceTail(size_t run, size_t slot, const MorselSink& sink,
                   DriveAccount* acct) const;

  const Table* table_;
  Timestamp read_ts_;
  ExprPtr predicate_;
  std::vector<int> projection_;
  Path path_ = Path::kAuto;
  std::vector<ValueType> out_types_;

  // Pushdown split and gather plan (columnar path).
  ColumnScanPlan plan_;

  std::optional<ColumnTable::Snapshot> snap_;
  BitVector main_sel_;
  size_t num_main_morsels_ = 0;
  // Filtered, projected delta (or row-table) rows: the trailing slot.
  Batch tail_;

  size_t rows_scanned_ = 0;
  size_t zones_pruned_ = 0;
};

// Residual filter (vectorized predicate + gather of passing rows), fused
// into its input's morsel pipeline.
class FilterOp final : public MorselSource {
 public:
  FilterOp(PhysicalOpPtr child, ExprPtr predicate, ParallelContext ctx = {});

  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> Children() const override;
  size_t slots() const override { return input_.slots(); }

 private:
  void Prepare() override { input_.Prepare(); }
  DriveTiming Produce(size_t begin, size_t end, const MorselSink& sink,
                      DriveAccount* acct) override;

  PhysicalOpPtr child_;
  ChildSource input_;
  ExprPtr predicate_;
};

// Computes one output column per expression.
class ProjectOp final : public PhysicalOp {
 public:
  ProjectOp(PhysicalOpPtr child, std::vector<ExprPtr> exprs);

  void Open() override;
  bool NextBatch(Batch* out) override;
  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> Children() const override;

 private:
  PhysicalOpPtr child_;
  std::vector<ExprPtr> exprs_;
};

// Aggregate function specification.
struct AggSpec {
  enum class Fn : uint8_t { kCountStar, kCount, kSum, kMin, kMax, kAvg };
  Fn fn = Fn::kCountStar;
  ExprPtr arg;  // null for COUNT(*)

  ValueType OutputType() const;
};

// Output types of an aggregation: group keys, then aggregates.
std::vector<ValueType> AggOutputTypes(const std::vector<ExprPtr>& group_exprs,
                                      const std::vector<AggSpec>& aggs);

// The hash-aggregation state of HashAggOp: one instance per run of
// consecutive slots a worker claimed, merged in slot order. Groups are
// kept in first-seen input order, which is what makes slot-ordered merges
// reproduce the DOP-1 group order exactly. Keys are encoded straight from the batch's typed
// vectors (EncodeKeyAt) into a KeyIndex, arguments accumulate from the
// typed arrays, and group storage is flat: nothing is boxed or allocated
// per row, and a new group costs no allocation of its own.
class AggAccumulator {
 public:
  struct AggState {
    ExactSum sum;       // SUM / AVG over DOUBLE
    __int128 isum = 0;  // SUM / AVG over INT64 (exact below 2^64 rows)
    int64_t count = 0;
    Value best;         // MIN / MAX so far
    bool any = false;
  };

  AggAccumulator() = default;
  // Pointers must outlive the accumulator (the owning operator's members).
  AggAccumulator(const std::vector<ExprPtr>* group_exprs,
                 const std::vector<AggSpec>* aggs)
      : group_exprs_(group_exprs), aggs_(aggs) {}

  void Consume(const Batch& batch);
  // Folds `other` into this, treating its input as the stream suffix:
  // new groups append in other's first-seen order, MIN/MAX ties keep this
  // side's (earlier) value. Exact for every aggregate: COUNT, integer SUM,
  // MIN and MAX trivially, SUM/AVG over doubles because ExactSum holds the
  // exact sum until Finalize rounds it once — so any split of the input
  // into runs of morsels gives the one-pass result bit for bit.
  void MergeFrom(const AggAccumulator& other);
  Value Finalize(const AggSpec& spec, const AggState& st) const;
  // Emits the next batch of finalized groups from *pos (advanced); a
  // global aggregate over zero rows emits its one row. False when done.
  bool EmitBatch(size_t* pos, Batch* out) const;

  size_t num_groups() const { return index_.size(); }
  void Clear();

 private:
  // The group of encoded key `key`; a new group takes its key values from
  // row `row` of `cols`, or from `src_keys` when that is non-null.
  size_t GroupFor(std::string_view key, uint64_t hash,
                  const std::vector<const ColumnVector*>& cols, size_t row,
                  const Value* src_keys);
  // Folds aggregate `a` over the n rows of the current batch.
  void ConsumeAgg(size_t a, const ColumnVector* arg, size_t n);

  const std::vector<ExprPtr>* group_exprs_ = nullptr;
  const std::vector<AggSpec>* aggs_ = nullptr;
  KeyIndex index_;                // encoded group key -> group id
  std::vector<Value> keys_;       // group g's key values at g * #keys
  std::vector<AggState> states_;  // group g's states at g * #aggs
  // Per-batch scratch: the key being encoded and the previous row's, and
  // each row's group.
  std::string key_buf_;
  std::string prev_key_;
  std::vector<size_t> row_group_;
};

// Blocking hash aggregation: GROUP BY `group_exprs` with `aggs`. Output
// columns = group keys then aggregates. With no group keys, emits exactly
// one row (global aggregate; zero input rows yield COUNT=0 / NULL sums).
//
// Open drives the child's slots: each worker folds every run of
// consecutive slots it claims into one AggAccumulator (at DOP 1: one
// accumulator, no merge), and the runs then merge in slot order, so the
// output is byte-identical at any DOP. `ctx` is the DOP of the child's
// pipeline (for EXPLAIN).
class HashAggOp final : public PhysicalOp {
 public:
  HashAggOp(PhysicalOpPtr child, std::vector<ExprPtr> group_exprs,
            std::vector<AggSpec> aggs, ParallelContext ctx = {});

  void Open() override;
  bool NextBatch(Batch* out) override;
  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> Children() const override;

 private:
  PhysicalOpPtr child_;
  ChildSource input_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  ParallelContext ctx_;
  AggAccumulator acc_{&group_exprs_, &aggs_};
  size_t emit_pos_ = 0;
};

// The key columns of a batch, for EncodeKeyAt (hash joins).
std::vector<const ColumnVector*> KeyColumns(const Batch& batch,
                                            const std::vector<int>& cols);

// The output columns of a hash join: ascending positions in build ++ probe
// (empty = all of them; the planner drops the columns nothing above the
// join reads).
class JoinProjection {
 public:
  JoinProjection(std::vector<int> output, const std::vector<ValueType>& build,
                 const std::vector<ValueType>& probe);

  const std::vector<ValueType>& types() const { return types_; }
  // Appends the joined rows (build_rows[k], probe_rows[k]) to `out`, one
  // typed gather per output column.
  void Append(const Batch& build, const std::vector<uint32_t>& build_rows,
              const Batch& probe, const std::vector<uint32_t>& probe_rows,
              Batch* out) const;
  // ", cols=[$0,$3]" when columns were dropped, else empty.
  std::string Describe() const;

 private:
  std::vector<int> output_;      // as passed (empty = all)
  std::vector<int> build_cols_;  // emitted build columns, then
  std::vector<int> probe_cols_;  // emitted probe columns
  std::vector<ValueType> types_;
};

// In-memory hash join (inner equi-join). Prepare materializes the build
// (left) side as one columnar batch and builds the hash table on the
// query's workers, partitioned by key hash into ctx.dop partitions: one
// worker inserts each partition's rows in ascending build-row order, so
// duplicate-key matches come out in build-row order at any DOP. Each
// probe (right) slot is then joined inside the worker that produced it,
// keeping the probe row order within the slot. Output = left columns ++
// right columns, or the ascending subset `output` of those positions.
class HashJoinOp final : public MorselSource {
 public:
  HashJoinOp(PhysicalOpPtr build, PhysicalOpPtr probe,
             std::vector<int> build_keys, std::vector<int> probe_keys,
             std::vector<int> output = {}, ParallelContext ctx = {});

  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> Children() const override;
  size_t slots() const override { return input_.slots(); }

 private:
  void Prepare() override;
  DriveTiming Produce(size_t begin, size_t end, const MorselSink& sink,
                      DriveAccount* acct) override;
  void BuildTable();
  // Joins one probe batch, sinking output in kDefaultBatchRows chunks.
  void JoinBatch(size_t run, size_t slot, const Batch& in,
                 const MorselSink& sink, DriveAccount* acct) const;

  PhysicalOpPtr build_;
  PhysicalOpPtr probe_;
  ChildSource input_;
  std::vector<int> build_keys_;
  std::vector<int> probe_keys_;
  JoinProjection out_;

  Batch build_side_;  // the materialized build input, columnar
  // Partition p owns keys with PartitionOf(hash(key), #parts) == p; per-key
  // match lists are in ascending build-row order.
  std::vector<JoinTable> parts_;
};

// Full sort (blocking). keys = (output column index, descending?).
class SortOp final : public PhysicalOp {
 public:
  struct SortKey {
    int column;
    bool descending = false;
  };
  SortOp(PhysicalOpPtr child, std::vector<SortKey> keys);

  void Open() override;
  bool NextBatch(Batch* out) override;
  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> Children() const override;

 private:
  PhysicalOpPtr child_;
  std::vector<SortKey> keys_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

// Fused ORDER BY + LIMIT: keeps only the top `limit` rows in a bounded
// heap while streaming the child — O(n log k) time and O(k) memory where
// the sort-then-limit pipeline pays O(n log n) / O(n). The planner emits
// this whenever a query has both clauses.
class TopNOp final : public PhysicalOp {
 public:
  TopNOp(PhysicalOpPtr child, std::vector<SortOp::SortKey> keys,
         size_t limit);

  void Open() override;
  bool NextBatch(Batch* out) override;
  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> Children() const override;

 private:
  // True if a precedes b in the requested order.
  bool Before(const Row& a, const Row& b) const;

  PhysicalOpPtr child_;
  std::vector<SortOp::SortKey> keys_;
  size_t limit_;
  std::vector<Row> heap_;  // max-heap on Before (worst row at front)
  size_t pos_ = 0;
  bool done_ = false;
};

class LimitOp final : public PhysicalOp {
 public:
  LimitOp(PhysicalOpPtr child, size_t limit);

  void Open() override;
  bool NextBatch(Batch* out) override;
  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> Children() const override;

 private:
  PhysicalOpPtr child_;
  size_t limit_;
  size_t emitted_ = 0;
};

// ", cols=[a,b]" naming the projected columns of a scan that reads fewer
// than all of `schema`'s columns; empty for a full-width projection.
std::string DescribeProjection(const Schema& schema,
                               const std::vector<int>& projection);

// Runs an operator tree to completion, collecting all rows.
std::vector<Row> CollectRows(PhysicalOp* op);
// The same, as one columnar batch (typed concatenation, no boxing).
Batch CollectBatch(PhysicalOp* op);


// Serialized group-key encoding shared by aggregation and join (distinct
// from storage key encoding: order is irrelevant, only equality).
std::string HashKeyOf(const Row& values);

// Collects the column indices an expression references (with duplicates).
void CollectExprColumns(const ExprPtr& e, std::vector<int>* out);

// Rewrites column references through `remap` (old index → new index).
ExprPtr RemapExprColumns(const ExprPtr& e, const std::vector<int>& remap);

}  // namespace oltap

#endif  // OLTAP_EXEC_OPERATORS_H_
