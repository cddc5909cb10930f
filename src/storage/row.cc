#include "storage/row.h"

#include <cstring>

#include "common/logging.h"

namespace oltap {
namespace {

void AppendValue(std::string* out, const Value& v) {
  if (v.is_null()) {
    AppendKeyNull(out);
    return;
  }
  switch (v.type()) {
    case ValueType::kInt64:
      AppendKeyInt64(out, v.AsInt64());
      break;
    case ValueType::kDouble:
      AppendKeyDouble(out, v.AsDouble());
      break;
    case ValueType::kString:
      AppendKeyString(out, v.AsStringView());
      break;
  }
}

}  // namespace

void AppendKeyNull(std::string* out) {
  // Null sorts first via a 0x00 tag; non-null values get 0x01.
  out->push_back('\0');
}

void AppendKeyInt64(std::string* out, int64_t v) {
  out->push_back('\x01');
  // Bias so that negative values order before positive under memcmp.
  uint64_t u = static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
  char buf[8];
  for (int b = 0; b < 8; ++b) {
    buf[b] = static_cast<char>((u >> (56 - 8 * b)) & 0xff);
  }
  out->append(buf, sizeof(buf));
}

void AppendKeyDouble(std::string* out, double d) {
  out->push_back('\x01');
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  // IEEE-754 total-order trick: flip all bits for negatives, sign bit for
  // non-negatives.
  if (bits & (uint64_t{1} << 63)) {
    bits = ~bits;
  } else {
    bits ^= uint64_t{1} << 63;
  }
  char buf[8];
  for (int b = 0; b < 8; ++b) {
    buf[b] = static_cast<char>((bits >> (56 - 8 * b)) & 0xff);
  }
  out->append(buf, sizeof(buf));
}

void AppendKeyString(std::string* out, std::string_view s) {
  out->push_back('\x01');
  for (char c : s) {
    if (c == '\0') {
      out->push_back('\0');
      out->push_back('\x01');
    } else {
      out->push_back(c);
    }
  }
  out->push_back('\0');
  out->push_back('\0');
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

std::string EncodeKey(const Schema& schema, const Row& row) {
  OLTAP_DCHECK(schema.HasKey());
  return EncodeKeyColumns(row, schema.key_columns());
}

std::string EncodeKeyColumns(const Row& row, const std::vector<int>& cols) {
  std::string out;
  out.reserve(cols.size() * 9);
  for (int c : cols) {
    OLTAP_DCHECK(c >= 0 && static_cast<size_t>(c) < row.size());
    AppendValue(&out, row[c]);
  }
  return out;
}

bool VersionVisible(const RowVersion& v, Timestamp read_ts,
                    uint64_t self_txn_id) {
  Timestamp begin = v.begin.load(std::memory_order_acquire);
  if (IsTxnId(begin)) {
    // Uncommitted insert: visible only to its own transaction.
    if (TxnIdOf(begin) != self_txn_id) return false;
  } else if (begin > read_ts) {
    return false;  // created after our snapshot
  }
  Timestamp end = v.end.load(std::memory_order_acquire);
  if (IsTxnId(end)) {
    // Uncommitted delete: already invisible to the deleting transaction,
    // still visible to everyone else.
    return TxnIdOf(end) != self_txn_id;
  }
  return end > read_ts;
}

}  // namespace oltap
