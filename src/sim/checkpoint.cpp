#include "sim/checkpoint.hpp"

#include <stdexcept>
#include <string>

namespace blam {

SpreadingFactor read_sf(StateReader& r) {
  const std::uint64_t value = r.get_u64();
  if (value < 7 || value > 12) {
    throw std::runtime_error{"checkpoint: spreading factor out of range: " +
                             std::to_string(value)};
  }
  return static_cast<SpreadingFactor>(value);
}

void write_rng(StateWriter& w, const Rng::State& state) {
  for (std::uint64_t word : state.s) w.put_u64(word);
  w.put_u64(state.seed);
  w.put_u64(state.stream);
  w.put_double(state.cached_normal);
  w.put_u64(state.has_cached_normal ? 1 : 0);
}

Rng::State read_rng(StateReader& r) {
  Rng::State state;
  for (std::uint64_t& word : state.s) word = r.get_u64();
  state.seed = r.get_u64();
  state.stream = r.get_u64();
  state.cached_normal = r.get_double();
  state.has_cached_normal = r.get_u64() != 0;
  return state;
}

void write_stats(StateWriter& w, const RunningStats& stats) {
  const RunningStats::Raw raw = stats.raw();
  w.put_u64(raw.n);
  w.put_double(raw.mean);
  w.put_double(raw.m2);
  w.put_double(raw.min);
  w.put_double(raw.max);
}

void read_stats(StateReader& r, RunningStats& stats) {
  RunningStats::Raw raw;
  raw.n = r.get_u64();
  raw.mean = r.get_double();
  raw.m2 = r.get_double();
  raw.min = r.get_double();
  raw.max = r.get_double();
  stats.restore_raw(raw);
}

void write_uplink_frame(StateWriter& w, const UplinkFrame& frame) {
  w.put_u64(frame.node_id);
  w.put_u64(frame.seq);
  w.put_i64(frame.attempt);
  write_time(w, frame.generated_at);
  w.put_i64(frame.selected_window);
  w.put_i64(frame.app_payload_bytes);
  w.put_u64(frame.soc_report.size());
  for (const SocSample& sample : frame.soc_report) {
    write_time(w, sample.t);
    w.put_double(sample.soc);
  }
  w.put_u64(frame.report_seq);
  w.put_u64(frame.report_crc);
  w.put_u64(frame.confirmed ? 1 : 0);
}

void read_uplink_frame(StateReader& r, UplinkFrame& frame) {
  frame.node_id = static_cast<std::uint32_t>(r.get_u64());
  frame.seq = static_cast<std::uint32_t>(r.get_u64());
  frame.attempt = static_cast<int>(r.get_i64());
  frame.generated_at = read_time(r);
  frame.selected_window = static_cast<int>(r.get_i64());
  frame.app_payload_bytes = static_cast<int>(r.get_i64());
  frame.soc_report.clear();
  for (std::uint64_t i = 0, n = r.get_u64(); i < n; ++i) {
    const Time t = read_time(r);
    frame.soc_report.push_back(SocSample{t, r.get_double()});
  }
  frame.report_seq = static_cast<std::uint16_t>(r.get_u64());
  frame.report_crc = static_cast<std::uint8_t>(r.get_u64());
  // Nodes send only confirmed uplinks, so a cleared bit is stream damage.
  if (r.get_u64() == 0) {
    throw std::runtime_error{"read_uplink_frame: unconfirmed frame"};
  }
  frame.confirmed = true;
}

void write_event(StateWriter& w, const Simulator& sim, EventHandle handle) {
  const auto pending = sim.lookup(handle);
  w.put_u64(pending.has_value() ? 1 : 0);
  if (pending.has_value()) {
    write_time(w, pending->time);
    w.put_u64(pending->seq);
  }
}

std::optional<EventQueue::PendingEvent> read_event(StateReader& r) {
  if (r.get_u64() == 0) return std::nullopt;
  EventQueue::PendingEvent event;
  event.time = read_time(r);
  event.seq = r.get_u64();
  return event;
}

}  // namespace blam
