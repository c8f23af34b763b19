// Memoized time-on-air / transmission-energy lookups.
//
// The SX1276 airtime formula (Eq. 7) is pure in its TxParams, and a running
// simulation only ever evaluates it for a handful of distinct parameter sets:
// a node cycles between "payload with SoC report" and "payload without" (one
// cache serves all of an engine slice's nodes: a few sets per SF), a gateway
// sees one set per (node SF, frame size), an ACK planner one per (SF, ack
// length). Profiling shows the repeated ceil/log math on the hot
// path; this cache collapses each distinct TxParams to one computation and
// replays the stored result, so every returned value is bit-identical to
// calling time_on_air()/tx_energy() directly.
//
// Storage is a small flat vector scanned linearly with a last-hit fast path —
// the working set is single digits, so this beats any hash map and never
// allocates after the first few distinct keys appear.
#pragma once

#include <cstddef>
#include <vector>

#include "lora/airtime.hpp"
#include "lora/params.hpp"

namespace blam {

class TxTimingCache {
 public:
  /// Time on air of `params`; computed once per distinct parameter set.
  [[nodiscard]] Time time_on_air(const TxParams& params) {
    return find_or_insert(params).toa;
  }

  /// Transmission energy of `params` on the SX1276 every node carries:
  /// exactly tx_energy(params, kSx1276), memoized on first use.
  [[nodiscard]] Energy tx_energy(const TxParams& params) {
    Entry& e = find_or_insert(params);
    if (!e.has_energy) {
      e.energy = blam::tx_energy(e.params, kSx1276);
      e.has_energy = true;
    }
    return e.energy;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    TxParams params;
    Time toa;
    Energy energy{};
    bool has_energy{false};
  };

  static bool same_key(const TxParams& a, const TxParams& b) {
    return a.sf == b.sf && a.payload_bytes == b.payload_bytes &&
           a.low_data_rate_optimize == b.low_data_rate_optimize &&
           a.tx_power_dbm == b.tx_power_dbm && a.bandwidth_hz == b.bandwidth_hz &&
           a.preamble_symbols == b.preamble_symbols && a.explicit_header == b.explicit_header;
  }

  Entry& find_or_insert(const TxParams& params) {
    if (last_ < entries_.size() && same_key(entries_[last_].params, params)) {
      return entries_[last_];
    }
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (same_key(entries_[i].params, params)) {
        last_ = i;
        return entries_[i];
      }
    }
    Entry e;
    e.params = params;
    e.toa = blam::time_on_air(params);
    entries_.push_back(e);
    last_ = entries_.size() - 1;
    return entries_.back();
  }

  std::vector<Entry> entries_;
  std::size_t last_{0};
};

}  // namespace blam
