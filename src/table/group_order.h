// Personal-group order of a table's rows (paper §5 preprocessing).
//
// SPS forms all personal groups with one O(|D| log |D|) sort of D by its
// public attributes, then scans the sorted runs. SortIntoGroups is that
// sort. It packs every row's NA key once (RowKeys) and sorts row ids by
// comparing keys.
//
// The within-group row order is part of the release contract. SPS's
// per-group draws and t-closeness's row shuffle consume a group's rows in
// this order, so every fixed-seed release depends on it. It is the order
// an unstable std::sort of the row ids 0..n-1 leaves under the
// NA-lexicographic comparator. Replacing the sort with a stable or radix
// sort would keep the groups but silently change every such release.
//
// FlatGroupIndex::Build groups rows with a stable sort instead (its
// `row_values` are ascending within each group). Both put groups in
// NA-lexicographic order, so group ids agree between the two.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "table/schema.h"
#include "table/table.h"

namespace recpriv::table {

/// Bit layout of a packed 64-bit NA key: one field per public attribute,
/// wide enough for its domain, with attribute 0 in the highest bits so
/// that numeric key order is NA-lexicographic order.
struct PackedKeyLayout {
  std::vector<uint32_t> bits;    ///< field width per public attribute
  std::vector<uint32_t> shifts;  ///< field offset per public attribute
  uint32_t total_bits = 0;

  /// False when the public domains need more than 64 bits.
  bool fits() const { return total_bits <= 64; }

  /// The layout of `schema`'s public attributes (schema public-index
  /// order). `shifts` is empty when the layout does not fit.
  static PackedKeyLayout Of(const Schema& schema);
};

/// The NA key of every row of a table, computed once: packed 64-bit keys
/// when the public domains fit, else row-major uint32 codes.
struct RowKeys {
  bool packed = false;
  size_t width = 0;                  ///< public attributes per key
  std::vector<uint64_t> packed_keys; ///< one per row (packed only)
  std::vector<uint32_t> wide_keys;   ///< num_rows x width (wide only)

  /// Packs the keys of `t`. `allow_packed` false forces wide keys.
  static RowKeys Pack(const Table& t, bool allow_packed = true);

  /// NA-lexicographic comparison of rows `a` and `b`.
  bool Less(size_t a, size_t b) const;
  bool Equal(size_t a, size_t b) const;
  /// True when the rows are already in non-decreasing key order.
  bool IsSorted() const;
};

/// A table's rows arranged into personal groups.
struct GroupOrder {
  /// Row ids, group-major; groups in NA-lexicographic order.
  std::vector<size_t> rows;
  /// Run boundaries: group g is rows[offsets[g], offsets[g + 1]).
  std::vector<size_t> offsets{0};

  size_t num_groups() const { return offsets.size() - 1; }
  std::span<const size_t> group(size_t g) const {
    return {rows.data() + offsets[g], offsets[g + 1] - offsets[g]};
  }
};

/// Sorts the rows of `t` into personal groups (see the file comment for
/// the within-group order this guarantees).
GroupOrder SortIntoGroups(const Table& t);

}  // namespace recpriv::table
