#include "exec/operators.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/logging.h"
#include "obs/metrics.h"

namespace oltap {

std::string HashKeyOf(const Row& values) {
  std::vector<int> all(values.size());
  std::iota(all.begin(), all.end(), 0);
  return EncodeKeyColumns(values, all);
}

void CollectExprColumns(const ExprPtr& e, std::vector<int>* out) {
  if (e == nullptr) return;
  if (e->kind() == Expr::Kind::kColumn) out->push_back(e->column_index());
  for (const ExprPtr& c : e->children()) CollectExprColumns(c, out);
}

ExprPtr RemapExprColumns(const ExprPtr& e, const std::vector<int>& remap) {
  switch (e->kind()) {
    case Expr::Kind::kColumn:
      return Expr::Column(remap[e->column_index()], e->result_type());
    case Expr::Kind::kConst:
      return e;
    case Expr::Kind::kCompare:
      return Expr::Compare(e->compare_op(),
                           RemapExprColumns(e->children()[0], remap),
                           RemapExprColumns(e->children()[1], remap));
    case Expr::Kind::kAnd:
      return Expr::And(RemapExprColumns(e->children()[0], remap),
                       RemapExprColumns(e->children()[1], remap));
    case Expr::Kind::kOr:
      return Expr::Or(RemapExprColumns(e->children()[0], remap),
                      RemapExprColumns(e->children()[1], remap));
    case Expr::Kind::kNot:
      return Expr::Not(RemapExprColumns(e->children()[0], remap));
    case Expr::Kind::kIsNull:
      return Expr::IsNull(RemapExprColumns(e->children()[0], remap));
    default:
      return Expr::Arith(e->kind(),
                         RemapExprColumns(e->children()[0], remap),
                         RemapExprColumns(e->children()[1], remap));
  }
}

namespace {

void ExplainInto(const PhysicalOp* op, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(op->Describe());
  // Optimizer annotations only when the planner produced estimates, so
  // non-optimized plans render exactly as before.
  if (op->est_rows() >= 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " est_rows=%lld",
                  static_cast<long long>(std::llround(op->est_rows())));
    out->append(buf);
    if (op->est_cost() >= 0) {
      std::snprintf(buf, sizeof(buf), " cost=%lld",
                    static_cast<long long>(std::llround(op->est_cost())));
      out->append(buf);
    }
  }
  out->push_back('\n');
  for (const PhysicalOp* child : op->Children()) {
    ExplainInto(child, depth + 1, out);
  }
}

}  // namespace

std::string ExplainPlan(const PhysicalOp* root) {
  std::string out;
  ExplainInto(root, 0, &out);
  return out;
}

void PhysicalOp::OpenTimed() {
  stats_.Reset();
  obs::ScopedTimer timer(&stats_.open_ns);
  Open();
}

bool PhysicalOp::NextBatchTimed(Batch* out) {
  bool more;
  {
    obs::ScopedTimer timer(&stats_.next_ns);
    more = NextBatch(out);
  }
  // Row/batch tallies are plain member increments (no clock read) and
  // stay on even under OLTAP_OBS_DISABLED, so EXPLAIN ANALYZE keeps its
  // exact row counts there; only timings degrade to zero. Only a true
  // return delivers a batch — on false `out` holds stale content from
  // the previous pull (callers never read it).
  if (more) {
    size_t n = out->num_rows();
    if (n > 0) {
      stats_.rows += n;
      ++stats_.batches;
    }
  }
  return more;
}

namespace {

void ProfileInto(const PhysicalOp* op, obs::QueryProfile::Node* node) {
  const obs::OpStats& st = op->op_stats();
  node->name = op->Describe();
  node->rows = st.rows;
  node->batches = st.batches;
  node->time_ns = st.total_ns();
  node->est_rows = op->est_rows();
  uint64_t children_ns = 0;
  for (const PhysicalOp* child : op->Children()) {
    node->children.emplace_back();
    ProfileInto(child, &node->children.back());
    children_ns += node->children.back().time_ns;
  }
  node->self_ns = node->time_ns > children_ns ? node->time_ns - children_ns : 0;
}

}  // namespace

obs::QueryProfile BuildQueryProfile(const PhysicalOp* root) {
  obs::QueryProfile profile;
  ProfileInto(root, &profile.root);
  return profile;
}

std::vector<Row> CollectRows(PhysicalOp* op) {
  std::vector<Row> rows;
  op->OpenTimed();
  Batch batch;
  while (op->NextBatchTimed(&batch)) {
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      rows.push_back(batch.GetRow(i));
    }
  }
  return rows;
}

// -------------------------------------------------------- ColumnScanPlan

std::string DescribeProjection(const Schema& schema,
                               const std::vector<int>& projection) {
  bool full = projection.size() == schema.num_columns();
  for (size_t i = 0; full && i < projection.size(); ++i) {
    full = projection[i] == static_cast<int>(i);
  }
  if (full) return "";
  std::string out = ", cols=[";
  for (size_t i = 0; i < projection.size(); ++i) {
    if (i > 0) out += ",";
    out += schema.column(projection[i]).name;
  }
  return out + "]";
}

void ColumnScanPlan::Init(const ExprPtr& predicate,
                          const std::vector<int>& projection,
                          size_t num_schema_columns) {
  pushed.clear();
  residual = nullptr;
  if (predicate != nullptr) {
    std::vector<ExprPtr> conjuncts;
    Expr::SplitConjuncts(predicate, &conjuncts);
    std::vector<ExprPtr> residual_terms;
    for (const ExprPtr& c : conjuncts) {
      Expr::ColumnPredicate cp;
      if (c->AsColumnPredicate(&cp)) {
        pushed.push_back(cp);
      } else {
        residual_terms.push_back(c);
      }
    }
    residual = Expr::CombineConjuncts(residual_terms);
  }
  // Gather only the columns the output or the residual actually touches.
  needed = projection;
  CollectExprColumns(residual, &needed);
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  schema_to_batch.assign(num_schema_columns, -1);
  for (size_t i = 0; i < needed.size(); ++i) {
    schema_to_batch[needed[i]] = static_cast<int>(i);
  }
  residual_remapped =
      residual == nullptr ? nullptr : RemapExprColumns(residual, schema_to_batch);
}

void ColumnScanPlan::Select(const MainFragment& main, Timestamp read_ts,
                            BitVector* sel, size_t* zones_pruned) const {
  main.VisibleMask(read_ts, sel);
  if (main.num_rows() == 0) return;  // empty main has no segments to scan
  for (const Expr::ColumnPredicate& cp : pushed) {
    // Zone-pruned storage-index scan: only zones whose min/max admit the
    // predicate are evaluated by the packed kernel.
    BitVector hits;
    size_t pruned = 0;
    main.column(cp.column).ScanCompareZoned(cp.op, cp.constant, &hits,
                                            &pruned);
    *zones_pruned += pruned;
    sel->And(hits);
  }
}

namespace {

// Typed decode of one segment at ascending row ids.
void GatherSegment(const ColumnSegment& seg,
                   const std::vector<uint32_t>& rids, ColumnVector* cv) {
  size_t n = rids.size();
  cv->Resize(n);
  switch (seg.type()) {
    case ValueType::kInt64:
      seg.GatherInt64(rids.data(), n, cv->mutable_i64()->data());
      break;
    case ValueType::kDouble:
      seg.GatherDouble(rids.data(), n, cv->mutable_f64()->data());
      break;
    case ValueType::kString:
      seg.GatherString(rids.data(), n, cv->mutable_str()->data());
      break;
  }
  if (seg.has_nulls()) {
    for (size_t k = 0; k < n; ++k) {
      if (seg.IsNull(rids[k])) cv->SetNull(k);
    }
  }
}

}  // namespace

void ColumnScanPlan::EmitMain(const MainFragment& main,
                              const std::vector<int>& projection,
                              const std::vector<uint32_t>& rids,
                              Batch* out) const {
  // Gather the needed columns, then filter, then project.
  Batch full;
  full.columns.reserve(needed.size());
  for (int c : needed) {
    const ColumnSegment& seg = main.column(c);
    full.columns.emplace_back(seg.type());
    GatherSegment(seg, rids, &full.columns.back());
  }
  if (residual_remapped == nullptr && projection == needed) {
    *out = std::move(full);  // every gathered row and column is output
    return;
  }
  BitVector keep;
  if (residual_remapped != nullptr) {
    residual_remapped->EvalPredicate(full, &keep);
  } else {
    keep.Resize(full.num_rows());
    keep.SetAll();
  }
  out->columns.clear();
  out->columns.reserve(projection.size());
  for (int c : projection) {
    const ColumnVector& src = full.columns[schema_to_batch[c]];
    out->columns.emplace_back(src.type());
    out->columns.back().AppendSelected(src, keep);
  }
}

Batch CollectBatch(PhysicalOp* op) {
  Batch all;
  for (ValueType t : op->OutputTypes()) all.columns.emplace_back(t);
  op->OpenTimed();
  Batch batch;
  while (op->NextBatchTimed(&batch)) {
    if (batch.num_rows() > 0) all.AppendRows(batch, 0, batch.num_rows());
  }
  return all;
}

Batch EmptyBatch(const std::vector<ValueType>& types) {
  Batch b;
  b.columns.reserve(types.size());
  for (ValueType t : types) b.columns.emplace_back(t);
  return b;
}

void AppendIfPasses(const Row& row, const ExprPtr& predicate,
                    const std::vector<int>& projection, Batch* out) {
  if (predicate != nullptr) {
    Value v = predicate->EvalRow(row);
    if (v.is_null() || !v.AsBool()) return;
  }
  for (size_t p = 0; p < projection.size(); ++p) {
    out->columns[p].AppendValue(row[static_cast<size_t>(projection[p])]);
  }
}

size_t CollectDeltaRows(const ColumnTable::Snapshot& snap,
                        const ExprPtr& predicate,
                        const std::vector<int>& projection, Batch* out) {
  size_t scanned = 0;
  auto consume = [&](uint32_t, const Row& row) {
    ++scanned;
    AppendIfPasses(row, predicate, projection, out);
  };
  if (snap.frozen != nullptr) snap.frozen->ForEachVisible(snap.read_ts, consume);
  snap.delta->ForEachVisible(snap.read_ts, consume);
  return scanned;
}

// ----------------------------------------------------------- MorselSource

std::string DescribeOp(const std::string& name, const std::string& args,
                       const ParallelContext& ctx) {
  if (ctx.dop < 2) return name + "(" + args + ")";
  return "Parallel" + name + "(" + args + ", dop=" + std::to_string(ctx.dop) +
         ")";
}

void MorselSource::PrepareMorsels() {
  if (prepared_) return;
  prepared_ = true;
  uint64_t t0 = obs::MonotonicNanos();
  Prepare();
  prepare_ns_ = obs::MonotonicNanos() - t0;
}

DriveTiming MorselSource::Drive(const MorselSink& sink, size_t begin,
                                size_t end) {
  PrepareMorsels();
  DriveAccount acct;
  DriveTiming t = Produce(begin, std::min(end, slots()), sink, &acct);
  uint64_t ns = acct.InclusiveNs(t);
  if (!prepare_accounted_) {
    prepare_accounted_ = true;
    ns += prepare_ns_;
  }
  AccountDriven(acct.rows(), acct.batches(), ns);
  return t;
}

void MorselSource::Open() {
  PrepareMorsels();
  window_.Reset(0, 0);
  next_slot_ = 0;
}

bool MorselSource::NextBatch(Batch* out) {
  while (!window_.Next(out)) {
    const size_t begin = next_slot_;
    if (begin >= slots()) return false;
    next_slot_ = std::min(slots(), begin + std::max<size_t>(1, ctx_.dop));
    window_.Reset(begin, next_slot_ - begin);
    // Pulled batches are counted by NextBatchTimed, not by the drive.
    DriveAccount unused;
    Produce(begin, next_slot_,
            [this](size_t, size_t slot, Batch&& b) {
              window_.Append(slot, std::move(b));
            },
            &unused);
  }
  return true;
}

void ChildSource::Prepare() {
  if (src_ != nullptr) {
    src_->PrepareMorsels();
  } else {
    op_->OpenTimed();
  }
}

size_t ChildSource::slots() const {
  return src_ != nullptr ? src_->slots() : 1;
}

DriveTiming ChildSource::Drive(const MorselSink& sink, size_t begin,
                               size_t end) {
  if (src_ != nullptr) return src_->Drive(sink, begin, end);
  if (begin > 0 || end == 0) return {};
  const uint64_t t0 = obs::MonotonicNanos();
  Batch batch;
  while (op_->NextBatchTimed(&batch)) {
    if (batch.num_rows() > 0) sink(0, 0, std::move(batch));
  }
  uint64_t ns = obs::MonotonicNanos() - t0;
  return {ns, ns};
}

// ---------------------------------------------------------------- ScanOp

ScanOp::ScanOp(const Table* table, Timestamp read_ts, ExprPtr predicate,
               std::vector<int> projection, Path path, ParallelContext ctx)
    : MorselSource(ctx),
      table_(table),
      read_ts_(read_ts),
      predicate_(std::move(predicate)),
      projection_(std::move(projection)),
      path_(path) {
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

std::vector<ValueType> ScanOp::OutputTypes() const { return out_types_; }

std::string ScanOp::Describe() const {
  std::string args =
      table_->name() + " [" + TableFormatToString(table_->format()) + "]";
  if (predicate_ != nullptr) args += ", pred=" + predicate_->ToString();
  args += DescribeProjection(table_->schema(), projection_);
  if (path_ == Path::kRow) {
    args += ", path=row";
  } else if (path_ == Path::kColumn || ctx().dop >= 2) {
    args += ", path=column";
  }
  return DescribeOp("Scan", args, ctx());
}

void ScanOp::Prepare() {
  tail_ = EmptyBatch(out_types_);
  // Resolve the physical side: column whenever one exists (historical
  // behavior), unless a forced path overrides it and the table actually
  // has that mirror.
  if (table_->column_table() == nullptr ||
      (path_ == Path::kRow && table_->row_table() != nullptr)) {
    // Row engine (or forced row mirror of a dual table): the passing rows
    // are collected once into the single slot (OLTP-sized tables).
    table_->row_table()->ScanVisible(read_ts_, [&](const Row& row) {
      ++rows_scanned_;
      AppendIfPasses(row, predicate_, projection_, &tail_);
    });
    return;
  }

  snap_ = table_->GetColumnSnapshot(read_ts_);
  OLTAP_CHECK(snap_.has_value());
  plan_.Init(predicate_, projection_, table_->schema().num_columns());
  // Main-fragment selection: visibility mask, then zone-pruned pushdown
  // kernels over whole segments (cheap relative to the per-row gather the
  // morsels do).
  const MainFragment& main = *snap_->main;
  rows_scanned_ += main.num_rows();
  plan_.Select(main, read_ts_, &main_sel_, &zones_pruned_);
  num_main_morsels_ = (main.num_rows() + kMorselRows - 1) / kMorselRows;

  // Delta (and frozen delta) rows: row-at-a-time with the full predicate,
  // in scan order — they become the trailing slot.
  rows_scanned_ += CollectDeltaRows(*snap_, predicate_, projection_, &tail_);
}

void ScanOp::ProduceMainMorsel(size_t run, size_t m, const MorselSink& sink,
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
    Batch out;
    plan_.EmitMain(*snap_->main, projection_, rids, &out);
    if (out.num_rows() == 0) continue;  // fully filtered by the residual
    acct->Emit(sink, run, m, std::move(out));
  }
}

void ScanOp::ProduceTail(size_t run, size_t slot, const MorselSink& sink,
                         DriveAccount* acct) const {
  size_t n = tail_.num_rows();
  for (size_t base = 0; base < n; base += kDefaultBatchRows) {
    Batch out;
    out.AppendRows(tail_, base, std::min(n, base + kDefaultBatchRows));
    acct->Emit(sink, run, slot, std::move(out));
  }
}

DriveTiming ScanOp::Produce(size_t begin, size_t end, const MorselSink& sink,
                            DriveAccount* acct) {
  static obs::Counter* dispatched =
      obs::MetricsRegistry::Default()->GetCounter("exec.morsel.dispatched");
  static obs::Counter* morsel_rows =
      obs::MetricsRegistry::Default()->GetCounter("exec.morsel.rows");
  const uint64_t rows0 = acct->rows();
  DriveTiming t = DriveSlots(ctx(), begin, end, [&](size_t run, size_t m) {
    if (m < num_main_morsels_) {
      ProduceMainMorsel(run, m, sink, acct);
    } else {
      ProduceTail(run, m, sink, acct);
    }
  });
  dispatched->Add(end - begin);
  morsel_rows->Add(acct->rows() - rows0);
  return t;
}

// --------------------------------------------------------------- FilterOp

FilterOp::FilterOp(PhysicalOpPtr child, ExprPtr predicate,
                   ParallelContext ctx)
    : MorselSource(ctx),
      child_(std::move(child)),
      input_(child_.get()),
      predicate_(std::move(predicate)) {
  OLTAP_CHECK(predicate_ != nullptr);
}

std::vector<ValueType> FilterOp::OutputTypes() const {
  return child_->OutputTypes();
}

std::string FilterOp::Describe() const {
  return DescribeOp("Filter", predicate_->ToString(), ctx());
}

std::vector<const PhysicalOp*> FilterOp::Children() const {
  return {child_.get()};
}

DriveTiming FilterOp::Produce(size_t begin, size_t end,
                              const MorselSink& sink, DriveAccount* acct) {
  return input_.Drive(
      [&](size_t run, size_t slot, Batch&& in) {
        BitVector keep;
        predicate_->EvalPredicate(in, &keep);
        if (keep.CountSet() == 0) return;
        Batch out;
        out.columns.reserve(in.num_columns());
        for (const ColumnVector& col : in.columns) {
          out.columns.emplace_back(col.type());
          out.columns.back().AppendSelected(col, keep);
        }
        acct->Emit(sink, run, slot, std::move(out));
      },
      begin, end);
}

// -------------------------------------------------------------- ProjectOp

std::string ProjectOp::Describe() const {
  std::string out = "Project(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs_[i]->ToString();
  }
  return out + ")";
}
std::vector<const PhysicalOp*> ProjectOp::Children() const {
  return {child_.get()};
}


ProjectOp::ProjectOp(PhysicalOpPtr child, std::vector<ExprPtr> exprs)
    : child_(std::move(child)), exprs_(std::move(exprs)) {}

void ProjectOp::Open() { child_->OpenTimed(); }

std::vector<ValueType> ProjectOp::OutputTypes() const {
  std::vector<ValueType> types;
  types.reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) types.push_back(e->result_type());
  return types;
}

bool ProjectOp::NextBatch(Batch* out) {
  Batch in;
  if (!child_->NextBatchTimed(&in)) return false;
  out->columns.clear();
  out->columns.reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    out->columns.push_back(e->EvalBatch(in));
  }
  return true;
}

// -------------------------------------------------------------- HashAggOp

ValueType AggSpec::OutputType() const {
  switch (fn) {
    case Fn::kCountStar:
    case Fn::kCount:
      return ValueType::kInt64;
    case Fn::kAvg:
      return ValueType::kDouble;
    case Fn::kSum:
    case Fn::kMin:
    case Fn::kMax:
      return arg->result_type();
  }
  return ValueType::kInt64;
}

HashAggOp::HashAggOp(PhysicalOpPtr child, std::vector<ExprPtr> group_exprs,
                     std::vector<AggSpec> aggs, ParallelContext ctx)
    : child_(std::move(child)),
      input_(child_.get()),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)),
      ctx_(ctx) {}

std::vector<ValueType> HashAggOp::OutputTypes() const {
  return AggOutputTypes(group_exprs_, aggs_);
}

std::string HashAggOp::Describe() const {
  return DescribeOp("HashAggregate",
                    "groups=" + std::to_string(group_exprs_.size()) +
                        ", aggs=" + std::to_string(aggs_.size()),
                    ctx_);
}

std::vector<const PhysicalOp*> HashAggOp::Children() const {
  return {child_.get()};
}

void HashAggOp::Open() {
  emit_pos_ = 0;
  input_.Prepare();
  // One accumulator per run, indexed by the run's first slot: a run is
  // produced entirely by one worker, so each accumulator is mutated by
  // exactly one thread during the drive.
  std::vector<std::unique_ptr<AggAccumulator>> runs(input_.slots());
  input_.Drive([&](size_t run, size_t, Batch&& batch) {
    std::unique_ptr<AggAccumulator>& acc = runs[run];
    if (acc == nullptr) {
      acc = std::make_unique<AggAccumulator>(&group_exprs_, &aggs_);
    }
    acc->Consume(batch);
  });
  // Runs are disjoint slot ranges, so merging them by first slot follows
  // the row stream and reproduces its first-seen group order exactly.
  acc_.Clear();
  bool first = true;
  for (const std::unique_ptr<AggAccumulator>& acc : runs) {
    if (acc == nullptr) continue;
    if (first) {
      acc_ = std::move(*acc);
      first = false;
    } else {
      acc_.MergeFrom(*acc);
    }
  }
}

std::vector<ValueType> AggOutputTypes(const std::vector<ExprPtr>& group_exprs,
                                      const std::vector<AggSpec>& aggs) {
  std::vector<ValueType> types;
  for (const ExprPtr& g : group_exprs) types.push_back(g->result_type());
  for (const AggSpec& a : aggs) types.push_back(a.OutputType());
  return types;
}

void AggAccumulator::Clear() {
  index_.Clear();
  keys_.clear();
  states_.clear();
}

size_t AggAccumulator::GroupFor(std::string_view key, uint64_t hash,
                                const std::vector<const ColumnVector*>& cols,
                                size_t row, const Value* src_keys) {
  bool inserted;
  size_t g = index_.FindOrInsert(key, hash, &inserted);
  if (inserted) {
    size_t nk = group_exprs_->size();
    for (size_t k = 0; k < nk; ++k) {
      keys_.push_back(src_keys != nullptr ? src_keys[k]
                                          : cols[k]->GetValue(row));
    }
    states_.resize(states_.size() + aggs_->size());
  }
  return g;
}

void AggAccumulator::Consume(const Batch& batch) {
  const std::vector<ExprPtr>& group_exprs = *group_exprs_;
  const std::vector<AggSpec>& aggs = *aggs_;
  size_t n = batch.num_rows();
  if (n == 0) return;
  // Group keys and aggregate arguments: column references read the batch
  // in place, other expressions are evaluated once per batch.
  std::vector<ColumnVector> computed;
  computed.reserve(group_exprs.size() + aggs.size());
  auto resolve = [&](const ExprPtr& e) -> const ColumnVector* {
    if (e->kind() == Expr::Kind::kColumn) {
      return &batch.columns[static_cast<size_t>(e->column_index())];
    }
    computed.push_back(e->EvalBatch(batch));
    return &computed.back();
  };
  std::vector<const ColumnVector*> keys;
  keys.reserve(group_exprs.size());
  for (const ExprPtr& g : group_exprs) keys.push_back(resolve(g));
  std::vector<const ColumnVector*> args(aggs.size(), nullptr);
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].arg != nullptr) args[a] = resolve(aggs[a].arg);
  }

  // The group of every row (new groups append in first-seen order), then
  // one typed loop per aggregate.
  row_group_.resize(n);
  if (keys.empty()) {
    key_buf_.clear();
    std::fill(row_group_.begin(), row_group_.end(),
              GroupFor(key_buf_, KeyIndex::Hash(key_buf_), keys, 0, nullptr));
  } else {
    // Clustered keys repeat row after row: compare with the previous
    // row's key before hashing.
    prev_key_.clear();
    for (size_t i = 0; i < n; ++i) {
      EncodeKeyAt(keys, i, &key_buf_);
      if (i > 0 && key_buf_ == prev_key_) {
        row_group_[i] = row_group_[i - 1];
        continue;
      }
      row_group_[i] =
          GroupFor(key_buf_, KeyIndex::Hash(key_buf_), keys, i, nullptr);
      key_buf_.swap(prev_key_);
    }
  }
  for (size_t a = 0; a < aggs.size(); ++a) ConsumeAgg(a, args[a], n);
}

void AggAccumulator::ConsumeAgg(size_t a, const ColumnVector* arg, size_t n) {
  const AggSpec& spec = (*aggs_)[a];
  const size_t naggs = aggs_->size();
  auto state = [&](size_t i) -> AggState& {
    return states_[row_group_[i] * naggs + a];
  };
  if (spec.fn == AggSpec::Fn::kCountStar) {
    for (size_t i = 0; i < n; ++i) ++state(i).count;
    return;
  }
  // SQL: aggregates skip NULLs. `update(st, i)` sees non-null rows only.
  auto for_each = [&](auto update) {
    for (size_t i = 0; i < n; ++i) {
      if (arg->IsNull(i)) continue;
      AggState& st = state(i);
      ++st.count;
      update(st, i);
      st.any = true;
    }
  };
  const bool is_int = arg->type() == ValueType::kInt64;
  switch (spec.fn) {
    case AggSpec::Fn::kCount:
      for_each([](AggState&, size_t) {});
      return;
    case AggSpec::Fn::kSum:
    case AggSpec::Fn::kAvg:
      if (is_int) {
        for_each([&](AggState& st, size_t i) { st.isum += arg->GetInt64(i); });
      } else {
        for_each([&](AggState& st, size_t i) { st.sum.Add(arg->GetDouble(i)); });
      }
      return;
    case AggSpec::Fn::kMin:
    case AggSpec::Fn::kMax: {
      // Same order as Value::Compare, without boxing every row: the state
      // is replaced only by a strictly better value, so ties keep the
      // first-seen one.
      const bool is_min = spec.fn == AggSpec::Fn::kMin;
      auto better = [is_min](const auto& v, const auto& cur) {
        return is_min ? v < cur : cur < v;
      };
      switch (arg->type()) {
        case ValueType::kInt64:
          for_each([&](AggState& st, size_t i) {
            int64_t v = arg->GetInt64(i);
            if (!st.any || better(v, st.best.AsInt64())) {
              st.best = Value::Int64(v);
            }
          });
          return;
        case ValueType::kDouble:
          for_each([&](AggState& st, size_t i) {
            double v = arg->GetDouble(i);
            if (!st.any || better(v, st.best.AsDouble())) {
              st.best = Value::Double(v);
            }
          });
          return;
        case ValueType::kString:
          for_each([&](AggState& st, size_t i) {
            const std::string& v = arg->GetString(i);
            if (!st.any || better(v, st.best.AsString())) {
              st.best = Value::String(v);
            }
          });
          return;
      }
      return;
    }
    case AggSpec::Fn::kCountStar:
      return;
  }
}

void AggAccumulator::MergeFrom(const AggAccumulator& other) {
  const std::vector<AggSpec>& aggs = *aggs_;
  const size_t nk = group_exprs_->size();
  const size_t naggs = aggs.size();
  const std::vector<const ColumnVector*> no_cols;
  for (uint32_t og = 0; og < other.index_.size(); ++og) {
    size_t g = GroupFor(other.index_.key(og), other.index_.hash(og), no_cols,
                        0, other.keys_.data() + og * nk);
    for (size_t a = 0; a < naggs; ++a) {
      AggState& st = states_[g * naggs + a];
      const AggState& os = other.states_[og * naggs + a];
      st.count += os.count;
      st.isum += os.isum;
      st.sum.Merge(os.sum);
      if (os.any) {
        // `other` is the later part of the stream: on ties keep the value
        // already here, exactly as a one-pass first-encounter fold does.
        int cmp = os.best.Compare(st.best);
        bool is_min = aggs[a].fn == AggSpec::Fn::kMin;
        if (!st.any || (is_min ? cmp < 0 : cmp > 0)) st.best = os.best;
        st.any = true;
      }
    }
  }
}

Value AggAccumulator::Finalize(const AggSpec& spec, const AggState& st) const {
  switch (spec.fn) {
    case AggSpec::Fn::kCountStar:
    case AggSpec::Fn::kCount:
      return Value::Int64(st.count);
    case AggSpec::Fn::kSum:
      if (st.count == 0) return Value::Null(spec.OutputType());
      // An INT64 sum past the int64 range wraps, as int64 addition would.
      return spec.arg->result_type() == ValueType::kInt64
                 ? Value::Int64(static_cast<int64_t>(
                       static_cast<unsigned __int128>(st.isum)))
                 : Value::Double(st.sum.Result());
    case AggSpec::Fn::kAvg: {
      if (st.count == 0) return Value::Null(ValueType::kDouble);
      // Both sums are exact; the conversion rounds them once.
      double sum = spec.arg->result_type() == ValueType::kInt64
                       ? static_cast<double>(st.isum)
                       : st.sum.Result();
      return Value::Double(sum / static_cast<double>(st.count));
    }
    case AggSpec::Fn::kMin:
    case AggSpec::Fn::kMax:
      return st.any ? st.best : Value::Null(spec.OutputType());
  }
  return Value::Null();
}

bool AggAccumulator::EmitBatch(size_t* pos, Batch* out) const {
  const std::vector<ExprPtr>& group_exprs = *group_exprs_;
  const std::vector<AggSpec>& aggs = *aggs_;
  const size_t nk = group_exprs.size();
  const size_t naggs = aggs.size();
  const size_t ngroups = num_groups();
  bool synth_empty = nk == 0 && ngroups == 0 && *pos == 0;
  if (!synth_empty && *pos >= ngroups) return false;

  *out = EmptyBatch(AggOutputTypes(group_exprs, aggs));
  if (synth_empty) {
    // Global aggregate over zero rows still yields one output row.
    AggState empty;
    for (size_t a = 0; a < naggs; ++a) {
      out->columns[a].AppendValue(Finalize(aggs[a], empty));
    }
    ++*pos;
    return true;
  }
  size_t end = std::min(ngroups, *pos + kDefaultBatchRows);
  for (; *pos < end; ++*pos) {
    const size_t g = *pos;
    size_t c = 0;
    for (size_t k = 0; k < nk; ++k) {
      out->columns[c++].AppendValue(keys_[g * nk + k]);
    }
    for (size_t a = 0; a < naggs; ++a) {
      out->columns[c++].AppendValue(Finalize(aggs[a], states_[g * naggs + a]));
    }
  }
  return true;
}

bool HashAggOp::NextBatch(Batch* out) {
  return acc_.EmitBatch(&emit_pos_, out);
}

// ------------------------------------------------------------- HashJoinOp

HashJoinOp::HashJoinOp(PhysicalOpPtr build, PhysicalOpPtr probe,
                       std::vector<int> build_keys,
                       std::vector<int> probe_keys, std::vector<int> output,
                       ParallelContext ctx)
    : MorselSource(ctx),
      build_(std::move(build)),
      probe_(std::move(probe)),
      input_(probe_.get()),
      build_keys_(std::move(build_keys)),
      probe_keys_(std::move(probe_keys)),
      out_(std::move(output), build_->OutputTypes(), probe_->OutputTypes()) {
  OLTAP_CHECK(build_keys_.size() == probe_keys_.size());
}

std::vector<ValueType> HashJoinOp::OutputTypes() const {
  return out_.types();
}

std::string HashJoinOp::Describe() const {
  std::string args = "keys=";
  for (size_t i = 0; i < build_keys_.size(); ++i) {
    if (i > 0) args += ",";
    args += "$" + std::to_string(build_keys_[i]) + "=$" +
            std::to_string(probe_keys_[i]);
  }
  return DescribeOp("HashJoin", args + out_.Describe(), ctx());
}

std::vector<const PhysicalOp*> HashJoinOp::Children() const {
  return {build_.get(), probe_.get()};
}

void HashJoinOp::Prepare() {
  input_.Prepare();
  BuildTable();
}

void HashJoinOp::BuildTable() {
  build_side_ = CollectBatch(build_.get());  // CollectBatch opens the child
  const size_t n = build_side_.num_rows();
  const size_t nparts = std::max<size_t>(1, ctx().dop);
  parts_.assign(nparts, {});
  if (n == 0) return;

  // Chunks of [0, count) claimed by up to dop workers, the query thread
  // included.
  auto for_chunks = [&](size_t count, size_t chunk,
                        const std::function<void(size_t, size_t)>& fn) {
    std::atomic<size_t> next{0};
    RunOnWorkers(ctx().pool, std::min(ctx().dop, count), [&](size_t) {
      for (size_t b = next.fetch_add(chunk); b < count;
           b = next.fetch_add(chunk)) {
        fn(b, std::min(count, b + chunk));
      }
    });
  };
  const std::vector<const ColumnVector*> key_cols =
      KeyColumns(build_side_, build_keys_);
  // Phase 1, with several partitions only: hash every build key once, to
  // route rows to partitions.
  std::vector<uint64_t> hashes;
  std::vector<uint8_t> valid;
  if (nparts > 1) {
    hashes.resize(n);
    valid.assign(n, 0);
    for_chunks(n, kDefaultBatchRows, [&](size_t begin, size_t end) {
      std::string key;
      for (size_t i = begin; i < end; ++i) {
        if (EncodeKeyAt(key_cols, i, &key)) continue;  // NULLs never join
        hashes[i] = KeyIndex::Hash(key);
        valid[i] = 1;
      }
    });
  }
  // Phase 2: one worker per partition; each partition scans the build
  // rows and inserts its own in ascending build-row order. A single
  // partition encodes and hashes each key here, once.
  for_chunks(nparts, 1, [&](size_t p, size_t) {
    JoinTable& part = parts_[p];
    std::string key;
    for (size_t i = 0; i < n; ++i) {
      if (nparts > 1 && (!valid[i] || PartitionOf(hashes[i], nparts) != p)) {
        continue;
      }
      if (EncodeKeyAt(key_cols, i, &key)) continue;  // NULLs never join
      part.Add(key, nparts > 1 ? hashes[i] : KeyIndex::Hash(key),
               static_cast<uint32_t>(i));
    }
    part.Finish();
  });
}

void HashJoinOp::JoinBatch(size_t run, size_t slot, const Batch& in,
                           const MorselSink& sink, DriveAccount* acct) const {
  // Matches are collected and emitted column by column, flushed once a
  // batch's worth has matched (a probe row's matches stay together).
  std::vector<uint32_t> build_rows, probe_rows;
  build_rows.reserve(kDefaultBatchRows);
  probe_rows.reserve(kDefaultBatchRows);
  auto flush = [&] {
    if (build_rows.empty()) return;
    Batch out = EmptyBatch(out_.types());
    out_.Append(build_side_, build_rows, in, probe_rows, &out);
    acct->Emit(sink, run, slot, std::move(out));
    build_rows.clear();
    probe_rows.clear();
  };
  const std::vector<const ColumnVector*> key_cols =
      KeyColumns(in, probe_keys_);
  const JoinTable* parts = parts_.data();
  const size_t nparts = parts_.size();
  const size_t n = in.num_rows();
  std::string key;
  for (size_t i = 0; i < n; ++i) {
    if (EncodeKeyAt(key_cols, i, &key)) continue;
    uint64_t hash = KeyIndex::Hash(key);
    // One partition needs no routing (and keeps the lookup loop tight).
    const JoinTable& part = parts[nparts == 1 ? 0 : PartitionOf(hash, nparts)];
    auto [first, last] = part.Find(key, hash);
    if (first == last) continue;
    build_rows.insert(build_rows.end(), first, last);
    probe_rows.insert(probe_rows.end(), static_cast<size_t>(last - first),
                      static_cast<uint32_t>(i));
    if (build_rows.size() >= kDefaultBatchRows) flush();
  }
  flush();
}

DriveTiming HashJoinOp::Produce(size_t begin, size_t end,
                                const MorselSink& sink, DriveAccount* acct) {
  return input_.Drive(
      [&](size_t run, size_t slot, Batch&& in) {
        JoinBatch(run, slot, in, sink, acct);
      },
      begin, end);
}

std::vector<const ColumnVector*> KeyColumns(const Batch& batch,
                                            const std::vector<int>& cols) {
  std::vector<const ColumnVector*> out;
  if (batch.columns.empty()) return out;
  out.reserve(cols.size());
  for (int c : cols) out.push_back(&batch.columns[static_cast<size_t>(c)]);
  return out;
}

JoinProjection::JoinProjection(std::vector<int> output,
                               const std::vector<ValueType>& build,
                               const std::vector<ValueType>& probe)
    : output_(std::move(output)) {
  const int nb = static_cast<int>(build.size());
  const int n = nb + static_cast<int>(probe.size());
  for (int c = 0; c < n; ++c) {
    if (!output_.empty() &&
        !std::binary_search(output_.begin(), output_.end(), c)) {
      continue;
    }
    if (c < nb) {
      build_cols_.push_back(c);
      types_.push_back(build[static_cast<size_t>(c)]);
    } else {
      probe_cols_.push_back(c - nb);
      types_.push_back(probe[static_cast<size_t>(c - nb)]);
    }
  }
}

void JoinProjection::Append(const Batch& build,
                            const std::vector<uint32_t>& build_rows,
                            const Batch& probe,
                            const std::vector<uint32_t>& probe_rows,
                            Batch* out) const {
  if (build_rows.empty()) return;
  size_t k = 0;
  for (int c : build_cols_) {
    out->columns[k++].AppendGather(build.columns[static_cast<size_t>(c)],
                                   build_rows.data(), build_rows.size());
  }
  for (int c : probe_cols_) {
    out->columns[k++].AppendGather(probe.columns[static_cast<size_t>(c)],
                                   probe_rows.data(), probe_rows.size());
  }
}

std::string JoinProjection::Describe() const {
  if (output_.empty()) return "";
  std::string out = ", cols=[";
  for (size_t i = 0; i < output_.size(); ++i) {
    if (i > 0) out += ",";
    out += "$" + std::to_string(output_[i]);
  }
  return out + "]";
}

// ----------------------------------------------------------------- SortOp

std::string SortOp::Describe() const {
  std::string out = "Sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "$" + std::to_string(keys_[i].column) +
           (keys_[i].descending ? " DESC" : " ASC");
  }
  return out + ")";
}
std::vector<const PhysicalOp*> SortOp::Children() const {
  return {child_.get()};
}


SortOp::SortOp(PhysicalOpPtr child, std::vector<SortKey> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {}

std::vector<ValueType> SortOp::OutputTypes() const {
  return child_->OutputTypes();
}

void SortOp::Open() {
  rows_ = CollectRows(child_.get());  // CollectRows opens the child
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Row& a, const Row& b) {
                     for (const SortKey& k : keys_) {
                       int cmp = a[k.column].Compare(b[k.column]);
                       if (cmp != 0) return k.descending ? cmp > 0 : cmp < 0;
                     }
                     return false;
                   });
  pos_ = 0;
}

bool SortOp::NextBatch(Batch* out) {
  if (pos_ >= rows_.size()) return false;
  std::vector<ValueType> types = OutputTypes();
  out->columns.clear();
  out->columns.reserve(types.size());
  for (ValueType t : types) out->columns.emplace_back(t);
  size_t end = std::min(rows_.size(), pos_ + kDefaultBatchRows);
  for (; pos_ < end; ++pos_) {
    for (size_t c = 0; c < types.size(); ++c) {
      out->columns[c].AppendValue(rows_[pos_][c]);
    }
  }
  return true;
}

// ----------------------------------------------------------------- TopNOp

std::string TopNOp::Describe() const {
  std::string out = "TopN(limit=" + std::to_string(limit_) + ", keys=";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "$" + std::to_string(keys_[i].column) +
           (keys_[i].descending ? " DESC" : " ASC");
  }
  return out + ")";
}
std::vector<const PhysicalOp*> TopNOp::Children() const {
  return {child_.get()};
}


TopNOp::TopNOp(PhysicalOpPtr child, std::vector<SortOp::SortKey> keys,
               size_t limit)
    : child_(std::move(child)), keys_(std::move(keys)), limit_(limit) {}

std::vector<ValueType> TopNOp::OutputTypes() const {
  return child_->OutputTypes();
}

bool TopNOp::Before(const Row& a, const Row& b) const {
  for (const SortOp::SortKey& k : keys_) {
    int cmp = a[k.column].Compare(b[k.column]);
    if (cmp != 0) return k.descending ? cmp > 0 : cmp < 0;
  }
  return false;
}

void TopNOp::Open() {
  child_->OpenTimed();
  heap_.clear();
  pos_ = 0;
  done_ = false;
}

bool TopNOp::NextBatch(Batch* out) {
  if (!done_) {
    // heap_ is a max-heap under Before: heap_.front() is the *worst* of
    // the current top-k, evicted whenever a better row arrives.
    auto worse = [this](const Row& a, const Row& b) { return Before(a, b); };
    Batch in;
    while (child_->NextBatchTimed(&in)) {
      for (size_t i = 0; i < in.num_rows(); ++i) {
        Row row = in.GetRow(i);
        if (heap_.size() < limit_) {
          heap_.push_back(std::move(row));
          std::push_heap(heap_.begin(), heap_.end(), worse);
        } else if (limit_ > 0 && Before(row, heap_.front())) {
          std::pop_heap(heap_.begin(), heap_.end(), worse);
          heap_.back() = std::move(row);
          std::push_heap(heap_.begin(), heap_.end(), worse);
        }
      }
    }
    std::sort_heap(heap_.begin(), heap_.end(), worse);
    done_ = true;
  }
  if (pos_ >= heap_.size()) return false;
  std::vector<ValueType> types = OutputTypes();
  out->columns.clear();
  out->columns.reserve(types.size());
  for (ValueType t : types) out->columns.emplace_back(t);
  size_t end = std::min(heap_.size(), pos_ + kDefaultBatchRows);
  for (; pos_ < end; ++pos_) {
    for (size_t c = 0; c < types.size(); ++c) {
      out->columns[c].AppendValue(heap_[pos_][c]);
    }
  }
  return true;
}

// ---------------------------------------------------------------- LimitOp

std::string LimitOp::Describe() const {
  return "Limit(" + std::to_string(limit_) + ")";
}
std::vector<const PhysicalOp*> LimitOp::Children() const {
  return {child_.get()};
}


LimitOp::LimitOp(PhysicalOpPtr child, size_t limit)
    : child_(std::move(child)), limit_(limit) {}

std::vector<ValueType> LimitOp::OutputTypes() const {
  return child_->OutputTypes();
}

void LimitOp::Open() {
  child_->OpenTimed();
  emitted_ = 0;
}

bool LimitOp::NextBatch(Batch* out) {
  if (emitted_ >= limit_) return false;
  Batch in;
  if (!child_->NextBatchTimed(&in)) return false;
  size_t take = std::min(in.num_rows(), limit_ - emitted_);
  if (take == in.num_rows()) {
    *out = std::move(in);
  } else {
    out->columns.clear();
    out->columns.reserve(in.num_columns());
    for (size_t c = 0; c < in.num_columns(); ++c) {
      ColumnVector cv(in.columns[c].type());
      for (size_t r = 0; r < take; ++r) cv.AppendFrom(in.columns[c], r);
      out->columns.push_back(std::move(cv));
    }
  }
  emitted_ += take;
  return true;
}

}  // namespace oltap
