// Lookup of a node id in an ascending array of unique ids.
//
// The report path resolves a node id on every delivered report, against the
// ids of one engine slice. A slice's ids spread almost evenly over their
// range (a whole fleet is 0..N-1; a city shard takes every node of its
// cells, i.e. a few residues mod the gateway count), so a first probe
// interpolated from the id lands on or next to the answer. The search
// gallops outward from that probe and finishes with a binary search, so an
// uneven id set still costs O(log n). For 3k-12k ids in the city shapes it
// took ~7 ns a lookup where std::lower_bound took ~75 ns (GCC 12 -O2, 4-core
// KVM guest), about what the hash map it replaces cost.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>

namespace blam {

/// Same result as std::lower_bound over [first, last) ordered by `id_of`
/// (ascending, unique): the first element whose id is >= `id`.
template <typename It, typename IdOf>
[[nodiscard]] It lower_bound_id(It first, It last, std::uint32_t id, IdOf id_of) {
  const auto n = static_cast<std::size_t>(std::distance(first, last));
  if (n == 0 || id <= id_of(first[0])) return first;
  const std::uint32_t low_id = id_of(first[0]);
  const std::uint32_t high_id = id_of(first[n - 1]);
  if (id > high_id) return last;
  // Unique ascending ids with low_id < id <= high_id: n >= 2, high_id > low_id.
  const double fraction = static_cast<double>(id - low_id) / static_cast<double>(high_id - low_id);
  const std::size_t probe =
      std::min(n - 1, static_cast<std::size_t>(fraction * static_cast<double>(n - 1)));
  const auto id_at = [&](std::size_t i) { return id_of(first[static_cast<std::ptrdiff_t>(i)]); };
  // The answer lies in [lo, hi]; gallop toward it from the probe.
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t step = 1;
  if (id_at(probe) < id) {
    lo = probe + 1;
    hi = lo;
    while (hi < n && id_at(hi) < id) {
      lo = hi + 1;
      hi = std::min(n, hi + step);
      step *= 2;
    }
  } else {
    hi = probe;
    lo = hi;
    while (lo > 0 && id_at(lo - 1) >= id) {
      hi = lo - 1;
      lo = lo > step ? lo - step : 0;
      step *= 2;
    }
  }
  return std::ranges::lower_bound(first + static_cast<std::ptrdiff_t>(lo),
                                  first + static_cast<std::ptrdiff_t>(hi), id, {}, id_of);
}

}  // namespace blam
