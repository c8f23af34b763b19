// Gateway-side degradation service (paper Sec. III-B, "Computing Battery
// Degradation" / "Disseminating battery degradation").
//
// Nodes cannot run the rainflow model themselves, so they piggy-back their
// SoC transition points (4 bytes per packet) on uplinks; the gateway
// maintains one ledger row per node, recomputes every node's degradation
// D_u once per `recompute_interval` (daily by default), derives the
// normalized degradation w_u = D_u / D_max, and hands w_u back to each
// node inside its ACKs (1 extra byte). A node that has never reported (or a
// fresh battery) gets w_u = 0, letting it run Algorithm 1 without ever
// hearing from the gateway.
//
// PR 7 restructures the service into a batched streaming pipeline sized for
// a million-node fleet:
//
//  * per-node state is columnar (SoA): integrity/health policy columns live
//    here, the flattened tracker + rainflow + reassembly storage lives in
//    LedgerStore (core/ledger_store.hpp), all indexed by one dense
//    NodeHandle;
//  * report arrival is decoupled from rainflow processing by a FIFO staging
//    queue (core/soc_ingest_queue.hpp): enqueue_report() copies the report
//    and drains the queue whenever `ingest_batch` reports are waiting
//    (watermark backpressure); recompute(), checkpoint-time callers and
//    end-of-run barriers call drain_queue() explicitly. Drain order is
//    arrival order, so ANY batch size yields the bit-identical ledger, and
//    batch size 1 degenerates to the legacy synchronous path — the same
//    jobs=1 == serial argument SweepRunner established;
//  * recompute() touches the rainflow residual stacks of dirty nodes only
//    (LedgerStore caches the cycle-linear chain per node), while calendar
//    aging still advances for everyone.
//
// The feedback pipe is lossy in deployment (and under the fault plan):
// reports are dropped, duplicated, reordered, truncated and bit-flipped by
// the very channel faults PR 1 injects. The PR-6 integrity layer is
// unchanged: checksum verification, RFC-1982 serial-number classification
// (duplicate / in-order / out-of-order / counter reset), bounded
// out-of-order reassembly, flagged gap bridging, crash-reset residual
// sealing, and the healthy → gapped → quarantined → recovered health
// machine with the conservative prior w_u = 1 (excluded from D_max) while
// quarantined. checkpoint_state()/restore_state() persist the whole ledger
// as one `ledger` section of the state codec (common/state_codec.hpp), the
// same way Node, Gateway and NetworkServer persist theirs; inside an engine
// checkpoint it follows the server's own section.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "core/ledger_store.hpp"
#include "core/soc_ingest_queue.hpp"
#include "core/soc_sample.hpp"
#include "degradation/model.hpp"

namespace blam {

class StateReader;
class StateWriter;

/// Checksum of a simulator-level SoC report: CRC-8 over the report sequence
/// number and each sample's canonical byte image (timestamp microseconds +
/// SoC bit pattern, little-endian). Nodes stamp it into UplinkFrame::
/// report_crc; the ingest path recomputes and compares before trusting the
/// samples. (The wire codec carries its own CRC over the quantized FOpts
/// bytes; this one protects the exact values the simulator transports.)
[[nodiscard]] std::uint8_t report_checksum(std::uint16_t report_seq,
                                           std::span<const SocSample> samples);

/// Per-node ledger health (gateway's view of the feedback pipe).
enum class LedgerHealth : std::uint8_t {
  kHealthy = 0,
  /// At least one report gap was bridged by interpolation; clears on the
  /// next clean in-order report.
  kGapped = 1,
  /// Repeated integrity failures: the ledger stops trusting this node and
  /// disseminates the conservative prior w_u = 1 until reports come clean.
  kQuarantined = 2,
  /// Left quarantine on a clean streak; promoted back to healthy at the
  /// next recompute.
  kRecovered = 3,
};

/// Structured counters over every ingest decision (aggregated across
/// nodes; all zero on a clean in-order stream).
struct LedgerCounters {
  std::uint64_t reports_accepted{0};
  std::uint64_t reports_duplicate{0};
  std::uint64_t reports_checksum_rejected{0};
  /// Out-of-order reports parked in the bounded reassembly buffer.
  std::uint64_t reports_buffered{0};
  /// Buffered reports later applied (exact in-order heal or flushed).
  std::uint64_t reports_reassembled{0};
  std::uint64_t samples_rejected_nonmonotonic{0};
  std::uint64_t samples_rejected_range{0};
  /// Report gaps accepted as lost and bridged by interpolation.
  std::uint64_t gaps_bridged{0};
  /// Report-sequence resets treated as node crash/reboot discontinuities.
  std::uint64_t discontinuities{0};
  std::uint64_t quarantines{0};
  std::uint64_t recoveries{0};

  /// Every counter in row order: the codec row and the shard merge walk
  /// this one list.
  [[nodiscard]] constexpr auto fields() const {
    return std::array{&LedgerCounters::reports_accepted, &LedgerCounters::reports_duplicate,
                      &LedgerCounters::reports_checksum_rejected, &LedgerCounters::reports_buffered,
                      &LedgerCounters::reports_reassembled,
                      &LedgerCounters::samples_rejected_nonmonotonic,
                      &LedgerCounters::samples_rejected_range, &LedgerCounters::gaps_bridged,
                      &LedgerCounters::discontinuities, &LedgerCounters::quarantines,
                      &LedgerCounters::recoveries};
  }
};

/// The counters as one state-codec row, shared by the `ledger` section and
/// the ExperimentResult codec (net/experiment.hpp).
void write_ledger_counters(StateWriter& w, const LedgerCounters& c);
void read_ledger_counters(StateReader& r, LedgerCounters& c);

/// All-reduce hook for D_max: when the fleet is split across shard-local
/// DegradationService instances (sim/shard_engine.hpp), every shard's w_u
/// must be normalized by the FLEET-wide maximum, not the local one. The
/// combiner is called once per recompute between the local-max pass and the
/// normalization pass; a standalone whole-fleet Network leaves it unset.
class FleetMaxCombiner {
 public:
  virtual ~FleetMaxCombiner() = default;
  /// Receives this service's local D_max, returns the fleet-wide D_max.
  [[nodiscard]] virtual double combine_max_degradation(double local_max) = 0;
};

class DegradationService {
 public:
  /// Serial-number window: a report sequence within this forward distance
  /// of the last applied one is a candidate for reordering; within the same
  /// backward distance it is a duplicate; anything farther is a counter
  /// reset (crash/reboot).
  static constexpr int kSeqWindow = 8;
  /// Out-of-order reports held per node before the buffer is flushed in
  /// serial order (missing reports declared lost, their gaps bridged).
  static constexpr std::size_t kReorderDepth = 4;
  /// Integrity failures that trip quarantine / clean reports that lift it.
  static constexpr std::uint32_t kQuarantineThreshold = 3;
  static constexpr std::uint32_t kRecoveryStreak = 3;

  DegradationService(const DegradationModel& model, double temperature_c);

  /// Registers a node (idempotent).
  void register_node(std::uint32_t node_id);

  /// Registers every node of `node_ids` (idempotent per id), sizing each
  /// ledger column once for the rows they may add. Ascending ids append.
  void register_nodes(std::span<const std::uint32_t> node_ids);

  /// Ingests SoC transition points reported by `node_id` WITHOUT the report
  /// integrity layer (no sequence numbers available — direct trace feeds in
  /// tests and benches). Samples are still validated: non-finite or
  /// out-of-range SoC and backwards timestamps are rejected and counted,
  /// never ingested. Drains any staged reports first so mixed use keeps
  /// arrival order.
  void ingest(std::uint32_t node_id, std::span<const SocSample> samples);

  /// Synchronous hardened ingest of one piggy-backed report: checksum
  /// verification, sequence classification, dedup, bounded out-of-order
  /// reassembly, gap bridging and crash-reset detection (see the file
  /// comment). Drains any staged reports first so mixed use keeps arrival
  /// order.
  void ingest_report(std::uint32_t node_id, std::uint16_t report_seq, std::uint8_t report_crc,
                     std::span<const SocSample> samples);

  /// Streaming entry point: stages the report in the ingestion queue and
  /// drains it once `ingest_batch()` reports are waiting. Bit-identical to
  /// ingest_report() for every batch size (drain order = arrival order);
  /// batch size 1 drains on every call (the legacy synchronous behavior).
  void enqueue_report(std::uint32_t node_id, std::uint16_t report_seq, std::uint8_t report_crc,
                      std::span<const SocSample> samples);

  /// Processes every staged report in arrival order; returns the count.
  std::size_t drain_queue();

  /// Attaches the fleet-wide D_max all-reduce (nullptr = local max only,
  /// a standalone whole-fleet Network's behavior).
  void set_fleet_combiner(FleetMaxCombiner* combiner) { combiner_ = combiner; }

  /// Queue watermark for enqueue_report() (must be >= 1).
  void set_ingest_batch(std::size_t batch);
  [[nodiscard]] std::size_t ingest_batch() const { return ingest_batch_; }

  /// Recomputes D_u for every node and refreshes w_u = D_u / D_max.
  /// Call once per dissemination period (daily in the paper). Drains the
  /// ingestion queue and every node's reassembly buffer first (the
  /// dissemination period is the deterministic deadline for late reports).
  /// D_max excludes quarantined nodes, whose w_u is pinned to the
  /// conservative prior 1.
  void recompute(Time now);

  /// Latest normalized degradation for the node; 0 until the first
  /// recompute() that saw data from it; 1 while quarantined.
  [[nodiscard]] double normalized_degradation(std::uint32_t node_id) const;

  /// Latest absolute degradation estimate for the node.
  [[nodiscard]] double degradation(std::uint32_t node_id) const;

  /// Maximum degradation across all non-quarantined nodes with data at the
  /// last recompute().
  [[nodiscard]] double max_degradation() const { return max_degradation_; }

  [[nodiscard]] std::size_t node_count() const { return ids_.size(); }

  /// Ascending node ids (canonical recompute order).
  [[nodiscard]] const std::vector<std::uint32_t>& ids() const { return ids_; }

  [[nodiscard]] LedgerHealth health(std::uint32_t node_id) const;

  /// Seconds of this node's trace bridged by interpolation (the estimated,
  /// not observed, share of its degradation input). It reads the ledger
  /// section's gap column, which leaves with the next format version.
  // blam-analyze: allow(N1) -- stream-bound; FeedbackResilience.LostReportGapIsBridgedAndFlagged
  [[nodiscard]] double estimated_gap_seconds(std::uint32_t node_id) const;

  [[nodiscard]] const LedgerCounters& counters() const { return counters_; }

  /// Columnar state backing the ledger (introspection for bench/tests).
  [[nodiscard]] const LedgerStore& store() const { return store_; }

  /// Writes the complete ledger (trackers, health, reassembly buffers,
  /// counters, last recompute results) as one `ledger` section, doubles as
  /// bit patterns. A non-empty ingestion queue is drained first — drain
  /// order is arrival order regardless of when the drain runs, so
  /// checkpointing mid-batch cannot change results.
  void checkpoint_state(StateWriter& w);

  /// Rebuilds the ledger from a checkpoint_state() section, replacing all
  /// current state. The service must have been constructed with the same
  /// model and temperature, and the ingestion queue must be empty
  /// (std::logic_error). Malformed or corrupt input throws a named
  /// std::runtime_error (duplicate node record, health out of range, held
  /// buffer overflow, trailing data, or a codec error) and leaves the ledger
  /// partially restored: discard it.
  void restore_state(StateReader& r);

 private:
  [[nodiscard]] NodeHandle handle_of(std::uint32_t node_id) const;

  /// Finds-or-creates the row for `node_id` with one search of the sorted
  /// ids_ index (lower_bound_id), keeping it in step.
  NodeHandle obtain(std::uint32_t node_id);

  /// One report through the full integrity pipeline (the drain sink).
  void process_report(std::uint32_t node_id, std::uint16_t report_seq, std::uint8_t report_crc,
                      std::span<const SocSample> samples);

  /// Validates and records samples (shared by both ingest paths).
  void accept_samples(NodeHandle h, std::span<const SocSample> samples);
  /// One verified report: gap accounting + sample acceptance.
  void apply_report(NodeHandle h, std::span<const SocSample> samples, bool bridged_gap);
  /// Applies buffered reports that now continue the sequence exactly.
  void drain_held(NodeHandle h);
  /// Gives up waiting: applies ALL buffered reports in serial order,
  /// bridging the gaps of reports declared lost.
  void flush_held(NodeHandle h);
  void hold(NodeHandle h, std::uint16_t report_seq, std::span<const SocSample> samples);
  void mark_clean(NodeHandle h);
  void mark_suspect(NodeHandle h);

  /// Columnar tracker/rainflow/reassembly state, indexed by NodeHandle.
  LedgerStore store_;
  /// Arrival-order staging queue (enqueue_report / drain_queue).
  SocIngestQueue queue_;
  // blam-ckpt: skip -- batching policy from ScenarioConfig::ingest_batch, re-applied at construction
  std::size_t ingest_batch_{1};

  // Integrity/health policy columns, parallel to store_ rows.
  std::vector<std::uint8_t> health_;
  std::vector<std::uint8_t> has_report_;
  std::vector<std::uint8_t> has_data_;
  std::vector<std::uint16_t> last_seq_;
  std::vector<std::uint32_t> suspicion_;
  std::vector<std::uint32_t> clean_streak_;
  std::vector<double> degradation_;
  std::vector<double> normalized_;
  std::vector<double> estimated_gap_s_;
  std::vector<Time> first_sample_t_;
  std::vector<Time> last_sample_t_;

  /// The node-id index: ascending node ids, maintained sorted on insert.
  /// Per-report lookups search it (common/sorted_ids.hpp), and full passes
  /// (recompute, checkpoint) walk it, so w_u passes run in canonical id
  /// order (D_max via std::max is order-independent anyway, but sorted
  /// iteration keeps the pass order reproducible by inspection).
  std::vector<std::uint32_t> ids_;
  /// Dense handles parallel to ids_ (handles_by_id_[i] is the row of
  /// ids_[i]).
  std::vector<NodeHandle> handles_by_id_;

  double max_degradation_{0.0};
  // blam-ckpt: skip -- shard-reducer wiring, re-attached by the owning engine
  FleetMaxCombiner* combiner_{nullptr};
  LedgerCounters counters_;
};

}  // namespace blam
