#include "fault/report_channel.hpp"

#include <bit>

#include "common/sorted_ids.hpp"

namespace blam {

ReportFaultChannel::Lane& ReportFaultChannel::slot(std::uint32_t node_id) {
  // Ascending registration appends; anything else searches.
  auto it = lanes_.end();
  if (!lanes_.empty() && lanes_.back().node_id >= node_id) {
    it = lower_bound_id(lanes_.begin(), lanes_.end(), node_id,
                        [](const Lane& ln) { return ln.node_id; });
    if (it->node_id == node_id) return *it;
  }
  // The lane's stream depends only on the node id, so traffic order cannot
  // change which faults a node's reports experience.
  return *lanes_.insert(it, Lane{node_id, false, false, 0, 0, plan_->report_stream(node_id), {}});
}

ReportFaultChannel::Lane& ReportFaultChannel::lane(std::uint32_t node_id) {
  Lane& ln = slot(node_id);
  ln.open = true;
  return ln;
}

void ReportFaultChannel::add_nodes(std::span<const std::uint32_t> node_ids) {
  lanes_.reserve(lanes_.size() + node_ids.size());
  for (const std::uint32_t node_id : node_ids) (void)slot(node_id);
}

void ReportFaultChannel::deliver(std::uint32_t node_id, std::uint16_t report_seq,
                                 std::uint8_t report_crc, std::span<const SocSample> samples,
                                 const Sink& sink) {
  if (!plan_->config().reports_enabled()) {
    ++counters_.delivered;
    sink(node_id, report_seq, report_crc, samples);
    return;
  }
  const FaultPlanConfig& cfg = plan_->config();
  Lane& ln = lane(node_id);
  // One draw per report, cumulative thresholds: at most one fault fires.
  const double draw = ln.rng.uniform();
  double threshold = cfg.report_loss;
  bool held_this_report = false;

  if (draw < threshold) {
    ++counters_.dropped;
  } else if (draw < (threshold += cfg.report_dup)) {
    ++counters_.duplicated;
    ++counters_.delivered;
    sink(node_id, report_seq, report_crc, samples);
    sink(node_id, report_seq, report_crc, samples);
  } else if (draw < (threshold += cfg.report_reorder)) {
    if (ln.holding) {
      // Slot occupied: the report passes through unswapped (the held one is
      // released below, which still realizes the earlier reorder).
      ++counters_.delivered;
      sink(node_id, report_seq, report_crc, samples);
    } else {
      ++counters_.reordered;
      ln.holding = true;
      ln.held_seq = report_seq;
      ln.held_crc = report_crc;
      ln.held_samples.assign(samples.begin(), samples.end());
      held_this_report = true;
    }
  } else if (draw < (threshold += cfg.report_corrupt)) {
    ++counters_.corrupted;
    ++counters_.delivered;
    // Flip one bit somewhere in the report image — a sample's SoC bit
    // pattern, a timestamp, or the sequence number — and keep the stale CRC:
    // exactly what a bit error between radio and ledger looks like. (A real
    // CRC-8 misses ~1/256 of multi-bit bursts; a single flipped bit is
    // always caught, so the detection the bench measures is the guaranteed
    // case.)
    std::uint16_t seq = report_seq;
    std::vector<SocSample>& mutated = mutated_;
    mutated.assign(samples.begin(), samples.end());
    const std::int64_t fields = static_cast<std::int64_t>(2 * mutated.size());
    const std::int64_t field = ln.rng.uniform_int(0, fields);  // `fields` = the seq itself
    if (field == fields || mutated.empty()) {
      seq ^= static_cast<std::uint16_t>(1u << ln.rng.uniform_int(0, 15));
    } else if (field % 2 == 0) {
      SocSample& victim = mutated[static_cast<std::size_t>(field / 2)];
      victim.soc = std::bit_cast<double>(std::bit_cast<std::uint64_t>(victim.soc) ^
                                         (1ull << ln.rng.uniform_int(0, 63)));
    } else {
      SocSample& victim = mutated[static_cast<std::size_t>(field / 2)];
      victim.t = Time::from_us(victim.t.us() ^
                               static_cast<std::int64_t>(1ull << ln.rng.uniform_int(0, 62)));
    }
    sink(node_id, seq, report_crc, mutated);
  } else if (draw < threshold + cfg.report_truncate) {
    ++counters_.truncated;
    ++counters_.delivered;
    // Lose the trailing sample, keep the CRC computed over the full report:
    // the ledger's checksum check rejects it.
    mutated_.assign(samples.begin(), samples.end());
    if (!mutated_.empty()) mutated_.pop_back();
    sink(node_id, report_seq, report_crc, mutated_);
  } else {
    ++counters_.delivered;
    sink(node_id, report_seq, report_crc, samples);
  }

  if (ln.holding && !held_this_report) {
    // Release the held report AFTER the current one: B then A on the wire.
    ln.holding = false;
    ++counters_.delivered;
    sink(node_id, ln.held_seq, ln.held_crc, ln.held_samples);
  }
}

std::vector<ReportFaultChannel::LaneSnapshot> ReportFaultChannel::snapshot() const {
  std::vector<LaneSnapshot> out;
  for (const Lane& ln : lanes_) {
    if (!ln.open) continue;
    // A released report's samples linger in held_samples (kept capacity);
    // a snapshot carries them only while the lane holds.
    out.push_back(LaneSnapshot{ln.node_id, ln.rng.state(), ln.holding, ln.held_seq, ln.held_crc,
                               ln.holding ? ln.held_samples : std::vector<SocSample>{}});
  }
  return out;
}

void ReportFaultChannel::restore(const std::vector<LaneSnapshot>& lanes,
                                 const ReportChannelCounters& counters) {
  for (Lane& ln : lanes_) {
    ln = Lane{ln.node_id, false, false, 0, 0, plan_->report_stream(ln.node_id), {}};
  }
  for (const LaneSnapshot& snap : lanes) {
    Lane& ln = lane(snap.node_id);
    ln.rng.restore(snap.rng);
    ln.holding = snap.holding;
    ln.held_seq = snap.held_seq;
    ln.held_crc = snap.held_crc;
    ln.held_samples = snap.held_samples;
  }
  counters_ = counters;
}

void ReportFaultChannel::flush(const Sink& sink) {
  for (Lane& ln : lanes_) {
    if (!ln.holding) continue;
    ln.holding = false;
    ++counters_.delivered;
    sink(ln.node_id, ln.held_seq, ln.held_crc, ln.held_samples);
  }
}

}  // namespace blam
