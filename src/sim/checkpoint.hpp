// Engine checkpoint codec helpers ("blamsim v4").
//
// A checkpoint captures engine slices — each a Network: a Simulator plus
// every component scheduled on it (server, gateways, nodes, fault channels,
// metrics) — at a quiescent instant: between run_until calls, when no
// callback is on the stack. ShardedNetwork writes a meta section, then each
// slice's Network::checkpoint_state, at a dissemination-epoch barrier where
// every slice's clock agrees. The meta section ends in an offset table (each
// slice's byte length), so restore hands every slice its own byte range and
// the slices parse in parallel, as they serialize.
//
// Restore is a rebuild, not a surgery: the caller constructs a FRESH engine
// from the same ScenarioConfig (burning identical construction-time RNG
// draws), wipes the construction-time event schedule (Simulator::
// clear_events), and then every component restores its passive state AND
// re-schedules its own pending events under their ORIGINAL sequence numbers
// (EventQueue::schedule_with_seq). Explicit seqs make restore order
// irrelevant and reproduce the serial FIFO tie-break exactly, so a resumed
// run re-executes the identical event interleaving — figure CSVs and shard
// fingerprints match the uninterrupted run byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "common/state_codec.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "lora/params.hpp"
#include "mac/frame.hpp"
#include "sim/simulator.hpp"

namespace blam {

/// First line of every engine checkpoint stream. No other version is read:
/// a stream written with another magic is refused at this line.
inline constexpr const char* kCheckpointMagic = "blamsim v4";

// --- shared token helpers (used by every component's checkpoint_state) ----

inline void write_time(StateWriter& w, Time t) { w.put_i64(t.us()); }
[[nodiscard]] inline Time read_time(StateReader& r) { return Time::from_us(r.get_i64()); }

inline void write_energy(StateWriter& w, Energy e) { w.put_double(e.joules()); }
[[nodiscard]] inline Energy read_energy(StateReader& r) {
  return Energy::from_joules(r.get_double());
}

/// A spreading factor travels as its value; outside 7..12 the stream is
/// damaged (std::runtime_error).
inline void write_sf(StateWriter& w, SpreadingFactor sf) { w.put_u64(sf_value(sf)); }
[[nodiscard]] SpreadingFactor read_sf(StateReader& r);

void write_rng(StateWriter& w, const Rng::State& state);
[[nodiscard]] Rng::State read_rng(StateReader& r);

void write_stats(StateWriter& w, const RunningStats& stats);
void read_stats(StateReader& r, RunningStats& stats);

/// Shared by the gateway (in-flight receptions) and the server (aggregating
/// frames): full uplink frame including the SoC report payload.
void write_uplink_frame(StateWriter& w, const UplinkFrame& frame);
void read_uplink_frame(StateReader& r, UplinkFrame& frame);

/// A histogram row travels sparse: `u <nonzero>`, then one (index, count)
/// pair per nonzero entry in ascending index order. A node picks only a few
/// of its forecast windows, so its per-window rows are almost all zero.
template <typename Row>
void write_sparse_row(StateWriter& w, const Row& row) {
  std::uint64_t nonzero = 0;
  for (const auto count : row) nonzero += count != 0 ? 1 : 0;
  w.put_u64(nonzero);
  for (std::size_t index = 0; index < row.size(); ++index) {
    if (row[index] == 0) continue;
    w.put_u64(index);
    w.put_u64(row[index]);
  }
}

/// Reads what write_sparse_row wrote for a row of `width` entries, calling
/// `set(index, count)` once per nonzero entry, in ascending index order;
/// the caller zeroes the row first. More pairs than `width`, an index >=
/// `width`, an index out of order or repeated, and a zero count are each a
/// std::runtime_error that starts with `what`.
template <typename Set>
void read_sparse_row(StateReader& r, std::size_t width, const char* what, Set&& set) {
  const auto fail = [what](const char* damage) {
    throw std::runtime_error{std::string{what} + ": sparse row " + damage};
  };
  const std::uint64_t nonzero = r.get_u64();
  if (nonzero > width) fail("has more entries than its width");
  std::uint64_t next = 0;  // the lowest index the next pair may name
  for (std::uint64_t k = 0; k < nonzero; ++k) {
    const std::uint64_t index = r.get_u64();
    const std::uint64_t count = r.get_u64();
    if (index >= width) fail("index past its width");
    if (index < next) fail("indices out of order or repeated");
    if (count == 0) fail("carries a zero count");
    set(static_cast<std::size_t>(index), count);
    next = index + 1;
  }
}

/// Serializes one owned event handle as (present, time, seq); stale handles
/// (fired or cancelled) serialize as absent.
void write_event(StateWriter& w, const Simulator& sim, EventHandle handle);
/// Reads what write_event wrote; the owner re-schedules the event with its
/// original seq via Simulator::schedule_at_seq (or drops it on nullopt).
[[nodiscard]] std::optional<EventQueue::PendingEvent> read_event(StateReader& r);

}  // namespace blam
