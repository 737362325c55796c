#include "relational/columnar.h"

#include <numeric>
#include <string_view>

namespace ufilter::relational {

// Table::columnar lives here rather than database.cc so the row-store layer
// keeps no compile-time dependency on the columnar module.
std::shared_ptr<const ColumnarTable> Table::columnar(
    const EngineCounters* counters) const {
  std::lock_guard<std::mutex> lock(columnar_mu_);
  if (columnar_ == nullptr) {
    columnar_ = ColumnarTable::Build(*this);
    if (counters != nullptr) counters->columnar_builds->Inc();
  }
  return columnar_;
}

std::shared_ptr<const ColumnarTable> ColumnarTable::Build(const Table& table) {
  auto out = std::make_shared<ColumnarTable>();
  out->row_ids_ = table.AllRowIds();
  const size_t n = out->row_ids_.size();
  const auto& schema_cols = table.schema().columns();
  const size_t col_count = schema_cols.size();
  out->columns_.resize(col_count);
  const size_t bitmap_words = (n + 63) / 64;
  for (size_t c = 0; c < col_count; ++c) {
    Column& col = out->columns_[c];
    // Storage kind follows the schema domain, which base-table constraint
    // enforcement guarantees per cell: INT columns hold only ints, DOUBLE
    // columns hold ints or doubles (widened losslessly for predicate and
    // hash purposes — both are AsNumber/double-based), everything else is
    // pooled strings. NULLs go to the bitmap with a zero placeholder.
    col.type = schema_cols[c].type == ValueType::kInt     ? ValueType::kInt
               : schema_cols[c].type == ValueType::kDouble ? ValueType::kDouble
                                                           : ValueType::kString;
    col.nulls.assign(bitmap_words, 0);
    switch (col.type) {
      case ValueType::kInt:
        col.i64.reserve(n);
        break;
      case ValueType::kDouble:
        col.f64.reserve(n);
        break;
      default:
        col.str_offsets.reserve(n + 1);
        col.str_offsets.push_back(0);
        break;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const Row& row = *table.GetRow(out->row_ids_[i]);
    for (size_t c = 0; c < col_count; ++c) {
      Column& col = out->columns_[c];
      const Value& v = row[c];
      const bool null = v.is_null();
      if (null) {
        col.has_nulls = true;
        col.nulls[i >> 6] |= uint64_t{1} << (i & 63);
      }
      switch (col.type) {
        case ValueType::kInt:
          col.i64.push_back(null ? 0 : v.AsInt());
          break;
        case ValueType::kDouble:
          col.f64.push_back(null ? 0.0 : v.AsNumber());
          break;
        default:
          if (!null) col.pool.append(v.AsString());
          col.str_offsets.push_back(static_cast<uint32_t>(col.pool.size()));
          break;
      }
    }
  }
  for (Column& col : out->columns_) {
    if (!col.has_nulls) {
      col.nulls.clear();
      col.nulls.shrink_to_fit();
    }
  }
  return out;
}

void ColumnarTable::SelectAll(Sel* sel) const {
  sel->resize(row_ids_.size());
  std::iota(sel->begin(), sel->end(), 0u);
}

namespace {

/// EvalCompare outcome for a non-null column value against a non-null
/// literal of a *different* total-order rank (numeric=1 < string=2):
/// equality is impossible across ranks, order follows the ranks — the same
/// constant for every row, so cross-type filters never touch the data.
bool CrossRankMatch(CompareOp op, int col_rank, int lit_rank) {
  switch (op) {
    case CompareOp::kEq:
      return false;
    case CompareOp::kNe:
      return true;
    case CompareOp::kLt:
    case CompareOp::kLe:
      return col_rank < lit_rank;
    case CompareOp::kGt:
    case CompareOp::kGe:
      return lit_rank < col_rank;
  }
  return false;
}

inline bool BitSet(const std::vector<uint64_t>& bits, uint32_t pos) {
  return (bits[pos >> 6] >> (pos & 63)) & 1;
}

/// Compacts `sel` in place, keeping positions where `pred(pos)` holds and
/// the row is non-null. Branchless: every surviving slot is written
/// unconditionally and the write cursor advances only on keep — the shape
/// auto-vectorizers handle well.
template <typename Pred>
void CompactSel(const std::vector<uint64_t>& nulls, bool has_nulls, Pred pred,
                ColumnarTable::Sel* sel) {
  uint32_t* out = sel->data();
  size_t kept = 0;
  if (has_nulls) {
    for (uint32_t pos : *sel) {
      const bool keep = pred(pos) && !BitSet(nulls, pos);
      out[kept] = pos;
      kept += keep ? 1 : 0;
    }
  } else {
    for (uint32_t pos : *sel) {
      const bool keep = pred(pos);
      out[kept] = pos;
      kept += keep ? 1 : 0;
    }
  }
  sel->resize(kept);
}

/// Typed numeric filter: one tight loop per operator, comparing as double
/// exactly like the row path (Value::operator== / operator< both go through
/// AsNumber, so int columns must compare widened too; NaN outcomes also
/// match EvalCompare's `!(==)` / `< || ==` formulations).
template <typename T>
void FilterNumeric(const T* data, const std::vector<uint64_t>& nulls,
                   bool has_nulls, CompareOp op, double lit,
                   ColumnarTable::Sel* sel) {
  auto run = [&](auto cmp) {
    CompactSel(
        nulls, has_nulls,
        [data, lit, cmp](uint32_t pos) {
          return cmp(static_cast<double>(data[pos]), lit);
        },
        sel);
  };
  switch (op) {
    case CompareOp::kEq:
      run([](double a, double b) { return a == b; });
      break;
    case CompareOp::kNe:
      run([](double a, double b) { return a != b; });
      break;
    case CompareOp::kLt:
      run([](double a, double b) { return a < b; });
      break;
    case CompareOp::kLe:
      run([](double a, double b) { return a <= b; });
      break;
    case CompareOp::kGt:
      run([](double a, double b) { return a > b; });
      break;
    case CompareOp::kGe:
      run([](double a, double b) { return a >= b; });
      break;
  }
}

}  // namespace

void ColumnarTable::FilterColumn(int column, CompareOp op,
                                 const Value& literal, Sel* sel) const {
  if (sel->empty()) return;
  const Column& c = columns_[static_cast<size_t>(column)];
  if (literal.is_null()) {  // NULL matches nothing under any operator
    sel->clear();
    return;
  }
  const int col_rank = c.type == ValueType::kString ? 2 : 1;
  const int lit_rank = literal.is_string() ? 2 : 1;
  if (col_rank != lit_rank) {
    if (CrossRankMatch(op, col_rank, lit_rank)) {
      // Matches every non-null row: just strip NULLs.
      CompactSel(c.nulls, c.has_nulls, [](uint32_t) { return true; }, sel);
    } else {
      sel->clear();
    }
    return;
  }
  if (c.type == ValueType::kInt) {
    FilterNumeric(c.i64.data(), c.nulls, c.has_nulls, op, literal.AsNumber(),
                  sel);
  } else if (c.type == ValueType::kDouble) {
    FilterNumeric(c.f64.data(), c.nulls, c.has_nulls, op, literal.AsNumber(),
                  sel);
  } else {
    const std::string_view lit = literal.AsString();
    auto at = [&c](uint32_t pos) {
      return std::string_view(c.pool.data() + c.str_offsets[pos],
                              c.str_offsets[pos + 1] - c.str_offsets[pos]);
    };
    auto run = [&](auto cmp) {
      CompactSel(
          c.nulls, c.has_nulls,
          [&at, lit, cmp](uint32_t pos) { return cmp(at(pos), lit); }, sel);
    };
    switch (op) {
      case CompareOp::kEq:
        run([](std::string_view a, std::string_view b) { return a == b; });
        break;
      case CompareOp::kNe:
        run([](std::string_view a, std::string_view b) { return a != b; });
        break;
      case CompareOp::kLt:
        run([](std::string_view a, std::string_view b) { return a < b; });
        break;
      case CompareOp::kLe:
        run([](std::string_view a, std::string_view b) { return a <= b; });
        break;
      case CompareOp::kGt:
        run([](std::string_view a, std::string_view b) { return a > b; });
        break;
      case CompareOp::kGe:
        run([](std::string_view a, std::string_view b) { return a >= b; });
        break;
    }
  }
}

void ColumnarTable::HashJoinBuild(
    int column, std::unordered_multimap<size_t, RowId>* out) const {
  const Column& c = columns_[static_cast<size_t>(column)];
  const uint32_t n = static_cast<uint32_t>(row_ids_.size());
  // Hashes must stay consistent with Value::Hash so columnar-built tables
  // serve probes hashed from row-store Values: numerics hash as
  // hash<double>(AsNumber), strings as hash<string> — which C++17
  // guarantees equals hash<string_view> over the same characters.
  switch (c.type) {
    case ValueType::kInt: {
      const std::hash<double> h;
      for (uint32_t pos = 0; pos < n; ++pos) {
        if (c.has_nulls && BitSet(c.nulls, pos)) continue;  // NULL never joins
        out->emplace(h(static_cast<double>(c.i64[pos])), row_ids_[pos]);
      }
      break;
    }
    case ValueType::kDouble: {
      const std::hash<double> h;
      for (uint32_t pos = 0; pos < n; ++pos) {
        if (c.has_nulls && BitSet(c.nulls, pos)) continue;
        out->emplace(h(c.f64[pos]), row_ids_[pos]);
      }
      break;
    }
    default: {
      const std::hash<std::string_view> h;
      for (uint32_t pos = 0; pos < n; ++pos) {
        if (c.has_nulls && BitSet(c.nulls, pos)) continue;
        out->emplace(
            h(std::string_view(c.pool.data() + c.str_offsets[pos],
                               c.str_offsets[pos + 1] - c.str_offsets[pos])),
            row_ids_[pos]);
      }
      break;
    }
  }
}

}  // namespace ufilter::relational
