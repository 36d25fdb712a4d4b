#include "table/group_order.h"

#include <algorithm>
#include <bit>
#include <numeric>

namespace recpriv::table {

PackedKeyLayout PackedKeyLayout::Of(const Schema& schema) {
  PackedKeyLayout layout;
  const std::vector<size_t> pub = schema.public_indices();
  layout.bits.assign(pub.size(), 0);
  for (size_t k = 0; k < pub.size(); ++k) {
    const size_t dom = schema.attribute(pub[k]).domain.size();
    layout.bits[k] =
        dom <= 1 ? 0u : uint32_t(std::bit_width(uint64_t(dom - 1)));
    layout.total_bits += layout.bits[k];
  }
  if (layout.fits()) {
    layout.shifts.assign(pub.size(), 0);
    uint32_t below = layout.total_bits;
    for (size_t k = 0; k < pub.size(); ++k) {
      below -= layout.bits[k];
      layout.shifts[k] = below;
    }
  }
  return layout;
}

RowKeys RowKeys::Pack(const Table& t, bool allow_packed) {
  const std::vector<size_t> pub = t.schema()->public_indices();
  const PackedKeyLayout layout = PackedKeyLayout::Of(*t.schema());
  const size_t n = t.num_rows();
  RowKeys keys;
  keys.packed = allow_packed && layout.fits();
  keys.width = pub.size();
  if (keys.packed) {
    keys.packed_keys.assign(n, 0);
    for (size_t k = 0; k < pub.size(); ++k) {
      if (layout.bits[k] == 0) continue;
      const uint32_t* col = t.column(pub[k]).data();
      const uint32_t shift = layout.shifts[k];
      for (size_t r = 0; r < n; ++r) {
        keys.packed_keys[r] |= uint64_t(col[r]) << shift;
      }
    }
  } else {
    keys.wide_keys.resize(n * pub.size());
    for (size_t k = 0; k < pub.size(); ++k) {
      const uint32_t* col = t.column(pub[k]).data();
      for (size_t r = 0; r < n; ++r) {
        keys.wide_keys[r * pub.size() + k] = col[r];
      }
    }
  }
  return keys;
}

bool RowKeys::Less(size_t a, size_t b) const {
  if (packed) return packed_keys[a] < packed_keys[b];
  const uint32_t* ka = wide_keys.data() + a * width;
  const uint32_t* kb = wide_keys.data() + b * width;
  return std::lexicographical_compare(ka, ka + width, kb, kb + width);
}

bool RowKeys::Equal(size_t a, size_t b) const {
  if (packed) return packed_keys[a] == packed_keys[b];
  const uint32_t* ka = wide_keys.data() + a * width;
  return std::equal(ka, ka + width, wide_keys.data() + b * width);
}

bool RowKeys::IsSorted() const {
  if (packed) return std::is_sorted(packed_keys.begin(), packed_keys.end());
  const size_t n = width == 0 ? 0 : wide_keys.size() / width;
  for (size_t r = 1; r < n; ++r) {
    if (Less(r, r - 1)) return false;
  }
  return true;
}

GroupOrder SortIntoGroups(const Table& t) {
  const RowKeys keys = RowKeys::Pack(t);
  const size_t n = t.num_rows();
  GroupOrder order;
  order.rows.resize(n);
  // Every comparison below has the outcome the NA-lexicographic column
  // comparator would give on the same two rows, so this unstable sort
  // leaves exactly the row order the release contract fixes (file comment
  // in the header). std::sort's steps depend only on comparison outcomes,
  // not on the element type, so the packed path may carry each key beside
  // its row id: same permutation, no indirect key load per comparison.
  if (keys.packed) {
    struct KeyRow {
      uint64_t key;
      size_t row;
    };
    std::vector<KeyRow> kr(n);
    for (size_t r = 0; r < n; ++r) kr[r] = KeyRow{keys.packed_keys[r], r};
    std::sort(kr.begin(), kr.end(),
              [](const KeyRow& a, const KeyRow& b) { return a.key < b.key; });
    for (size_t i = 0; i < n; ++i) order.rows[i] = kr[i].row;
  } else {
    std::iota(order.rows.begin(), order.rows.end(), size_t{0});
    std::sort(order.rows.begin(), order.rows.end(),
              [&keys](size_t a, size_t b) { return keys.Less(a, b); });
  }
  for (size_t i = 1; i < n; ++i) {
    if (!keys.Equal(order.rows[i - 1], order.rows[i])) {
      order.offsets.push_back(i);
    }
  }
  if (n > 0) order.offsets.push_back(n);
  return order;
}

}  // namespace recpriv::table
