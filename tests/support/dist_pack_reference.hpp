// dist_pack_reference.hpp — packing a Dist row into a narrow storage width.
//
// narrow_row is the packing reference: the width differentials compare
// BfsWorkspace::row_into, which BFS-writes rows at their width, against
// narrow_row(bfs_distances_reference(...)). Test support only.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>

#include "graph/dist_slab.hpp"

namespace nav::graph {

/// Packs a Dist row at `width` into dst (src.size() * width_bytes bytes).
/// Returns true when any finite value exceeded max_finite(width) — such
/// entries are stored as the sentinel, and the caller MUST treat the row as
/// invalid (the oracles throw).
[[nodiscard]] inline bool narrow_row(std::span<const Dist> src, DistWidth width,
                                     std::uint8_t* dst) {
  auto pack = [&](auto* packed) {
    using T = std::remove_pointer_t<decltype(packed)>;
    constexpr Dist top = std::numeric_limits<T>::max() - Dist{1};
    bool saturated = false;
    for (std::size_t i = 0; i < src.size(); ++i) {
      const Dist d = src[i];
      saturated |= d != kInfDist && d > top;
      packed[i] = d > top ? std::numeric_limits<T>::max() : static_cast<T>(d);
    }
    return saturated;
  };
  switch (width) {
    case DistWidth::kU8: return pack(dst);
    case DistWidth::kU16: return pack(reinterpret_cast<std::uint16_t*>(dst));
    default: return pack(reinterpret_cast<Dist*>(dst));
  }
}

}  // namespace nav::graph
