// Deterministic fault channel for piggy-backed SoC reports.
//
// Sits between PHY delivery and ledger ingestion on the gateway: every
// report that survives the radio passes through deliver(), which draws one
// uniform from the node's dedicated fault stream and either forwards the
// report intact or applies exactly one fault — drop, duplicate, reorder
// (held one slot and released after the node's next report), single-bit
// corruption of a sample or the sequence number (the stale CRC travels
// along, so the ledger's checksum check is what must catch it), or sample
// truncation. Streams are forked per node off the FaultPlan's report salt,
// so report faults never perturb any other fault source, and a plan with
// reports_enabled() false never opens lanes or consumes draws — fault-free
// runs stay bit-identical.
//
// Lanes live in one array sorted by node id. The network server lays out a
// slot for every node of its slice up front, in one array sized once
// (ascending ids, so each is an append); a slot becomes a lane —
// snapshotted, flushed — when its node's first report arrives. A report
// from a node that was never added gets its slot inserted in place.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/degradation_service.hpp"
#include "fault/fault_plan.hpp"

namespace blam {

/// What the channel did to the reports it carried (observability; feeds
/// GatewayMetrics).
struct ReportChannelCounters {
  std::uint64_t delivered{0};
  std::uint64_t dropped{0};
  std::uint64_t duplicated{0};
  std::uint64_t reordered{0};
  std::uint64_t corrupted{0};
  std::uint64_t truncated{0};
};

class ReportFaultChannel {
 public:
  /// Receives each report the channel releases (possibly mutated); the
  /// network server points this at DegradationService::ingest_report.
  using Sink = std::function<void(std::uint32_t node_id, std::uint16_t report_seq,
                                  std::uint8_t report_crc, std::span<const SocSample> samples)>;

  explicit ReportFaultChannel(const FaultPlan& plan) : plan_{&plan} {}

  /// Lays out the (not yet open) lane slots of `node_ids`, sizing the lane
  /// array once for them; ascending ids make each an append. Optional:
  /// deliver() slots an unknown node itself.
  void add_nodes(std::span<const std::uint32_t> node_ids);

  /// Carries one report across the faulty channel, invoking `sink` zero, one
  /// or two times depending on the fault drawn.
  void deliver(std::uint32_t node_id, std::uint16_t report_seq, std::uint8_t report_crc,
               std::span<const SocSample> samples, const Sink& sink);

  /// Releases any report still held for reordering (end of run); without
  /// this a held report would be silently lost rather than late.
  void flush(const Sink& sink);

  [[nodiscard]] const ReportChannelCounters& counters() const { return counters_; }

  /// Open-lane state for engine checkpoints, in ascending node id.
  struct LaneSnapshot {
    std::uint32_t node_id{0};
    Rng::State rng{};
    bool holding{false};
    std::uint16_t held_seq{0};
    std::uint8_t held_crc{0};
    std::vector<SocSample> held_samples;
  };

  [[nodiscard]] std::vector<LaneSnapshot> snapshot() const;
  void restore(const std::vector<LaneSnapshot>& lanes, const ReportChannelCounters& counters);

 private:
  struct Lane {
    std::uint32_t node_id{0};
    /// Has carried a report: only open lanes are snapshotted.
    bool open{false};
    /// One-slot reorder buffer: the held report is released after the next
    /// report from the same node goes through (B then A). held_samples
    /// keeps its capacity across reports.
    bool holding{false};
    std::uint16_t held_seq{0};
    std::uint8_t held_crc{0};
    Rng rng;
    std::vector<SocSample> held_samples;
  };

  /// The slot of `node_id`, inserted (closed, freshly seeded) if missing.
  Lane& slot(std::uint32_t node_id);
  /// The slot of `node_id`, opened.
  Lane& lane(std::uint32_t node_id);

  // blam-ckpt: skip -- wiring; lane RNGs and held reports are serialized through the server section
  const FaultPlan* plan_;
  /// Ascending node id; flush() and snapshot() walk it in that order.
  std::vector<Lane> lanes_;
  /// Reused copy of a report the channel corrupts or truncates.
  // blam-ckpt: skip -- per-report scratch, overwritten before every use
  std::vector<SocSample> mutated_;
  ReportChannelCounters counters_;
};

}  // namespace blam
