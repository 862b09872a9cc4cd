// dist_slab.hpp — compact storage widths for distance rows.
//
// Dist is uint32 at the oracle interface, but a distance row only needs
// ceil(log2(diameter + 2)) bits: a torus row whose entries never exceed 200
// wastes 3 of every 4 bytes in a uint32 slab. DistanceMatrix and
// TargetDistanceCache therefore store rows at uint8/uint16/uint32 and hand
// them out as width-tagged DistRow views. Consumers read the entries in
// place: operator[] decodes one entry, and hot loops (the routers) dispatch
// once per row through DistRow::visit and compare raw typed entries.
//
// Encoding: each width reserves its numeric maximum as the infinity
// sentinel (0xFF for u8, 0xFFFF for u16, kInfDist for u32), so
// max_finite(width) is max - 1 and raw comparisons order exactly like
// decoded ones. Rows are BFS-written at their width by
// BfsWorkspace::row_into. A reachable node farther than max_finite is a
// *saturation* — the storage was declared too narrow for the graph — and
// the oracles turn it into a loud std::invalid_argument instead of a
// silently wrong distance.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "graph/bfs.hpp"
#include "runtime/assert.hpp"

namespace nav::graph {

/// Bytes per stored distance entry. The enum value IS the byte width.
enum class DistWidth : std::uint8_t { kU8 = 1, kU16 = 2, kU32 = 4 };

[[nodiscard]] constexpr std::size_t width_bytes(DistWidth w) noexcept {
  return static_cast<std::size_t>(w);
}

/// The stored bit pattern that decodes to kInfDist at this width.
[[nodiscard]] constexpr std::uint32_t narrow_inf(DistWidth w) noexcept {
  switch (w) {
    case DistWidth::kU8: return 0xFFu;
    case DistWidth::kU16: return 0xFFFFu;
    default: return kInfDist;
  }
}

/// Largest finite distance the width can hold (one under the sentinel).
[[nodiscard]] constexpr Dist max_finite(DistWidth w) noexcept {
  return w == DistWidth::kU32 ? kInfDist - 1 : narrow_inf(w) - 1;
}

/// Smallest width whose max_finite covers `bound` (a diameter upper bound).
[[nodiscard]] constexpr DistWidth width_for_bound(Dist bound) noexcept {
  if (bound <= max_finite(DistWidth::kU8)) return DistWidth::kU8;
  if (bound <= max_finite(DistWidth::kU16)) return DistWidth::kU16;
  return DistWidth::kU32;
}

/// Spec token for the width ("u8" | "u16" | "u32").
[[nodiscard]] constexpr const char* width_token(DistWidth w) noexcept {
  switch (w) {
    case DistWidth::kU8: return "u8";
    case DistWidth::kU16: return "u16";
    default: return "u32";
  }
}

/// Parses a width spec token; `spec` is the enclosing spec string named in
/// the std::invalid_argument on failure.
[[nodiscard]] inline DistWidth parse_dist_width(const std::string& token,
                                                const std::string& spec) {
  if (token == "u8") return DistWidth::kU8;
  if (token == "u16") return DistWidth::kU16;
  if (token == "u32") return DistWidth::kU32;
  throw std::invalid_argument("bad width '" + token +
                              "' (u8 | u16 | u32 | auto) in spec: " + spec);
}

/// Decodes one stored entry of any width: the sentinel becomes kInfDist.
template <typename T>
[[nodiscard]] constexpr Dist decode_dist(T v) noexcept {
  return v == std::numeric_limits<T>::max() ? kInfDist : static_cast<Dist>(v);
}

/// Read-only view of one target's distance row (size n, indexed by node) at
/// its storage width. operator[] decodes a single entry; loops over many
/// entries call visit(), which dispatches on the width once and hands the
/// callback the typed entries (std::span<const uint8_t/uint16_t/Dist>).
class DistRow {
 public:
  DistRow() = default;
  DistRow(const void* data, std::size_t size, DistWidth width) noexcept
      : data_(data), size_(size), width_(width) {}
  /// A u32 row read in place (implicit: any Dist range is a u32 row).
  DistRow(std::span<const Dist> row) noexcept
      : DistRow(row.data(), row.size(), DistWidth::kU32) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] DistWidth width() const noexcept { return width_; }

  /// The entries as stored; T must match the width.
  template <typename T>
  [[nodiscard]] std::span<const T> as() const noexcept {
    NAV_ASSERT(sizeof(T) == width_bytes(width_));
    return {static_cast<const T*>(data_), size_};
  }

  /// fn(std::span<const T>) for the row's element type T.
  template <typename Fn>
  decltype(auto) visit(Fn&& fn) const {
    switch (width_) {
      case DistWidth::kU8: return fn(as<std::uint8_t>());
      case DistWidth::kU16: return fn(as<std::uint16_t>());
      default: return fn(as<Dist>());
    }
  }

  [[nodiscard]] Dist operator[](std::size_t i) const noexcept {
    return visit([i](auto row) { return decode_dist(row[i]); });
  }

  /// Decodes the whole row into dst (dst.size() == size()).
  void widen_into(std::span<Dist> dst) const {
    NAV_ASSERT(dst.size() == size_);
    visit([dst](auto row) {
      for (std::size_t i = 0; i < row.size(); ++i) dst[i] = decode_dist(row[i]);
    });
  }

  /// Decoded element-wise equality, across widths.
  friend bool operator==(const DistRow& a, const DistRow& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
  friend bool operator==(const DistRow& a, std::span<const Dist> b) {
    return a == DistRow(b);
  }

 private:
  const void* data_ = nullptr;
  std::size_t size_ = 0;
  DistWidth width_ = DistWidth::kU32;
};

}  // namespace nav::graph
