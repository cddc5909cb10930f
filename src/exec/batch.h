#ifndef OLTAP_EXEC_BATCH_H_
#define OLTAP_EXEC_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "storage/row.h"
#include "storage/value.h"

namespace oltap {

// A typed column of execution values. Exactly one of the payload arrays is
// populated according to `type`. Vectorized operators work directly on
// these arrays; scalar fallbacks go through GetValue.
class ColumnVector {
 public:
  ColumnVector() = default;
  explicit ColumnVector(ValueType t) : type_(t) {}

  ValueType type() const { return type_; }
  size_t size() const { return size_; }

  bool IsNull(size_t i) const { return has_nulls_ && nulls_.Get(i); }
  bool has_nulls() const { return has_nulls_; }

  int64_t GetInt64(size_t i) const { return i64_[i]; }
  double GetDouble(size_t i) const { return f64_[i]; }
  const std::string& GetString(size_t i) const { return str_[i]; }
  Value GetValue(size_t i) const;

  void Reserve(size_t n);
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  void AppendNull();
  void AppendValue(const Value& v);
  // Typed copies from a vector of the same type (no boxing): one cell,
  // the cells whose bit is set in `sel`, or the cells [begin, end).
  void AppendFrom(const ColumnVector& src, size_t i);
  void AppendSelected(const ColumnVector& src, const BitVector& sel);
  void AppendRange(const ColumnVector& src, size_t begin, size_t end);
  // The cells src[rows[0]], ..., src[rows[n-1]].
  void AppendGather(const ColumnVector& src, const uint32_t* rows, size_t n);
  // Bulk fill: Resize to n cells (payload value-initialized, no nulls
  // added), write through the mutable arrays, then mark nulls.
  void Resize(size_t n);
  void SetNull(size_t i);

  // Direct array access for kernels.
  const std::vector<int64_t>& i64() const { return i64_; }
  const std::vector<double>& f64() const { return f64_; }
  const std::vector<std::string>& str() const { return str_; }
  std::vector<int64_t>* mutable_i64() { return &i64_; }
  std::vector<double>* mutable_f64() { return &f64_; }
  std::vector<std::string>* mutable_str() { return &str_; }

  // Builds a vector from a slice of per-row Values (all of type t or null).
  static ColumnVector FromValues(ValueType t, const std::vector<Value>& vals);

 private:
  void MarkNullable(size_t upto);

  ValueType type_ = ValueType::kInt64;
  size_t size_ = 0;
  bool has_nulls_ = false;
  BitVector nulls_;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<std::string> str_;
};

// A batch of rows in columnar form flowing between operators.
struct Batch {
  std::vector<ColumnVector> columns;

  size_t num_rows() const {
    return columns.empty() ? 0 : columns[0].size();
  }
  size_t num_columns() const { return columns.size(); }

  Row GetRow(size_t i) const;
  void AppendRow(const Row& row, const std::vector<ValueType>& types);
  // Typed copy of rows [begin, end) of `src` (same column types), after
  // creating the columns if this batch has none.
  void AppendRows(const Batch& src, size_t begin, size_t end);
};

// Encodes row `row` of the key columns `cols` into `out` (cleared first),
// byte-identical to EncodeKeyColumns over the boxed row — the grouping and
// join key of aggregation and hash joins, read straight from the typed
// arrays. Returns true if any key cell is NULL.
bool EncodeKeyAt(const std::vector<const ColumnVector*>& cols, size_t row,
                 std::string* out);

// Default number of rows per batch (a few L1-friendly vectors).
inline constexpr size_t kDefaultBatchRows = 2048;

}  // namespace oltap

#endif  // OLTAP_EXEC_BATCH_H_
