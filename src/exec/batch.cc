#include "exec/batch.h"

#include "common/logging.h"

namespace oltap {

Value ColumnVector::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null(type_);
  switch (type_) {
    case ValueType::kInt64:
      return Value::Int64(i64_[i]);
    case ValueType::kDouble:
      return Value::Double(f64_[i]);
    case ValueType::kString:
      return Value::String(str_[i]);
  }
  return Value();
}

void ColumnVector::Reserve(size_t n) {
  switch (type_) {
    case ValueType::kInt64:
      i64_.reserve(n);
      break;
    case ValueType::kDouble:
      f64_.reserve(n);
      break;
    case ValueType::kString:
      str_.reserve(n);
      break;
  }
}

void ColumnVector::MarkNullable(size_t upto) {
  if (!has_nulls_) {
    has_nulls_ = true;
  }
  if (nulls_.size() < upto) nulls_.Resize(upto);
}

void ColumnVector::AppendInt64(int64_t v) {
  OLTAP_DCHECK(type_ == ValueType::kInt64);
  i64_.push_back(v);
  ++size_;
  if (has_nulls_) nulls_.Resize(size_);
}

void ColumnVector::AppendDouble(double v) {
  OLTAP_DCHECK(type_ == ValueType::kDouble);
  f64_.push_back(v);
  ++size_;
  if (has_nulls_) nulls_.Resize(size_);
}

void ColumnVector::AppendString(std::string v) {
  OLTAP_DCHECK(type_ == ValueType::kString);
  str_.push_back(std::move(v));
  ++size_;
  if (has_nulls_) nulls_.Resize(size_);
}

void ColumnVector::AppendNull() {
  switch (type_) {
    case ValueType::kInt64:
      i64_.push_back(0);
      break;
    case ValueType::kDouble:
      f64_.push_back(0);
      break;
    case ValueType::kString:
      str_.emplace_back();
      break;
  }
  ++size_;
  MarkNullable(size_);
  nulls_.Set(size_ - 1);
}

void ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case ValueType::kInt64:
      AppendInt64(v.AsInt64());
      return;
    case ValueType::kDouble:
      AppendDouble(v.AsDouble());
      return;
    case ValueType::kString:
      AppendString(v.AsString());
      return;
  }
}

void ColumnVector::AppendFrom(const ColumnVector& src, size_t i) {
  OLTAP_DCHECK(src.type_ == type_);
  if (src.IsNull(i)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case ValueType::kInt64:
      AppendInt64(src.i64_[i]);
      return;
    case ValueType::kDouble:
      AppendDouble(src.f64_[i]);
      return;
    case ValueType::kString:
      AppendString(src.str_[i]);
      return;
  }
}

void ColumnVector::AppendSelected(const ColumnVector& src,
                                  const BitVector& sel) {
  OLTAP_DCHECK(src.type_ == type_);
  size_t base = size_;
  size_t n = sel.CountSet();
  Resize(base + n);
  size_t k = base;
  for (size_t r = sel.FindNextSet(0); r < sel.size();
       r = sel.FindNextSet(r + 1), ++k) {
    switch (type_) {
      case ValueType::kInt64:
        i64_[k] = src.i64_[r];
        break;
      case ValueType::kDouble:
        f64_[k] = src.f64_[r];
        break;
      case ValueType::kString:
        str_[k] = src.str_[r];
        break;
    }
    if (src.IsNull(r)) SetNull(k);
  }
}

void ColumnVector::AppendRange(const ColumnVector& src, size_t begin,
                               size_t end) {
  OLTAP_DCHECK(src.type_ == type_ && begin <= end && end <= src.size_);
  size_t base = size_;
  switch (type_) {
    case ValueType::kInt64:
      i64_.insert(i64_.end(), src.i64_.begin() + begin, src.i64_.begin() + end);
      break;
    case ValueType::kDouble:
      f64_.insert(f64_.end(), src.f64_.begin() + begin, src.f64_.begin() + end);
      break;
    case ValueType::kString:
      str_.insert(str_.end(), src.str_.begin() + begin, src.str_.begin() + end);
      break;
  }
  size_ += end - begin;
  if (has_nulls_) nulls_.Resize(size_);
  if (src.has_nulls_) {
    for (size_t i = begin; i < end; ++i) {
      if (src.nulls_.Get(i)) SetNull(base + (i - begin));
    }
  }
}

void ColumnVector::AppendGather(const ColumnVector& src, const uint32_t* rows,
                                size_t n) {
  OLTAP_DCHECK(src.type_ == type_);
  size_t base = size_;
  Resize(base + n);
  switch (type_) {
    case ValueType::kInt64:
      for (size_t k = 0; k < n; ++k) i64_[base + k] = src.i64_[rows[k]];
      break;
    case ValueType::kDouble:
      for (size_t k = 0; k < n; ++k) f64_[base + k] = src.f64_[rows[k]];
      break;
    case ValueType::kString:
      for (size_t k = 0; k < n; ++k) str_[base + k] = src.str_[rows[k]];
      break;
  }
  if (src.has_nulls_) {
    for (size_t k = 0; k < n; ++k) {
      if (src.nulls_.Get(rows[k])) SetNull(base + k);
    }
  }
}

void ColumnVector::Resize(size_t n) {
  switch (type_) {
    case ValueType::kInt64:
      i64_.resize(n);
      break;
    case ValueType::kDouble:
      f64_.resize(n);
      break;
    case ValueType::kString:
      str_.resize(n);
      break;
  }
  size_ = n;
  if (has_nulls_) nulls_.Resize(n);
}

void ColumnVector::SetNull(size_t i) {
  MarkNullable(size_);
  nulls_.Set(i);
}

bool EncodeKeyAt(const std::vector<const ColumnVector*>& cols, size_t row,
                 std::string* out) {
  out->clear();
  bool any_null = false;
  for (const ColumnVector* c : cols) {
    if (c->IsNull(row)) {
      AppendKeyNull(out);
      any_null = true;
      continue;
    }
    switch (c->type()) {
      case ValueType::kInt64:
        AppendKeyInt64(out, c->GetInt64(row));
        break;
      case ValueType::kDouble:
        AppendKeyDouble(out, c->GetDouble(row));
        break;
      case ValueType::kString:
        AppendKeyString(out, c->GetString(row));
        break;
    }
  }
  return any_null;
}

ColumnVector ColumnVector::FromValues(ValueType t,
                                      const std::vector<Value>& vals) {
  ColumnVector cv(t);
  cv.Reserve(vals.size());
  for (const Value& v : vals) cv.AppendValue(v);
  return cv;
}

Row Batch::GetRow(size_t i) const {
  Row row;
  row.reserve(columns.size());
  for (const ColumnVector& c : columns) row.push_back(c.GetValue(i));
  return row;
}

void Batch::AppendRows(const Batch& src, size_t begin, size_t end) {
  if (columns.empty()) {
    columns.reserve(src.columns.size());
    for (const ColumnVector& c : src.columns) columns.emplace_back(c.type());
  }
  OLTAP_DCHECK(src.columns.size() == columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    columns[c].AppendRange(src.columns[c], begin, end);
  }
}

void Batch::AppendRow(const Row& row, const std::vector<ValueType>& types) {
  if (columns.empty()) {
    columns.reserve(types.size());
    for (ValueType t : types) columns.emplace_back(t);
  }
  OLTAP_DCHECK(row.size() == columns.size());
  for (size_t c = 0; c < row.size(); ++c) columns[c].AppendValue(row[c]);
}

}  // namespace oltap
