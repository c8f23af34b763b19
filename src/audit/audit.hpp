// Runtime invariant auditor: checks the simulator's physical bookkeeping
// while it runs and records (or throws on) violations.
//
// The long-run figures (Figs. 5-10) rest on energy conservation, SoC caps
// and rainflow-fed capacity fade being computed correctly over simulated
// years; a silently wrong ledger ships a wrong figure. The auditor is an
// observe-only tap on the hot paths: Node reports every PowerSwitch flow and
// storage loss, the Simulator reports every event pop, and the NetworkServer
// reports every accepted uplink. The auditor never draws random numbers and
// never mutates simulation state, so results are bit-identical with it on
// or off.
//
// Switches: BLAM_AUDIT=1 builds an Auditor in every engine slice, and it
// runs every check on every call; 0 or unset builds none (each hook is a
// null-pointer test). BLAM_AUDIT_THROW=1 throws at the first violation.
//
// Thread safety: one Auditor belongs to one Network, i.e. one engine slice
// on one simulator thread. Its per-node ledger covers exactly that slice's
// nodes, and its state travels in the slice's checkpoint as an `audit`
// section, so an audited run splits into any number of slices and resumes
// from a checkpoint like any other.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "energy/power_switch.hpp"

namespace blam {

class StateReader;
class StateWriter;

enum class AuditInvariant {
  /// Per-node ledger: harvest/demand splits, storage delta vs charged minus
  /// drawn (conversion loss bounded by the supercap efficiency), and
  /// continuity of stored energy across accounting intervals.
  kEnergyConservation,
  /// Battery SoC in [0, 1] and never *rising* above the theta cap.
  kSocBounds,
  /// Capacity fade is monotonically non-decreasing and in [0, 1].
  kFadeMonotonic,
  /// The event queue never pops a timestamp behind the simulation clock.
  kEventMonotonic,
  /// Transmissions respect the regulatory duty-cycle T_off rule.
  kDutyCycle,
  /// ACKs name the node and an uplink sequence number it actually sent; the
  /// server accepts per-node sequence numbers strictly monotonically.
  kSequence,
  /// Disseminated normalized degradation w_u in [0, 1].
  kFeedbackRange,
  /// Fault-free, insulated runs only: the gateway ledger's per-node
  /// degradation estimate must not exceed the node's own tracker by more
  /// than 5% + 1e-6. One-sided — the gateway sees a subsampled trace and
  /// legitimately underestimates; a ledger *inflating* degradation means
  /// the ingest pipeline fabricated aging.
  kFeedbackConsistency,
};

[[nodiscard]] const char* audit_invariant_name(AuditInvariant invariant);

struct AuditViolation {
  AuditInvariant invariant{AuditInvariant::kEnergyConservation};
  /// Simulation time of the offending observation.
  Time at{};
  /// Global node id, or -1 for slice-wide invariants (event-queue order).
  std::int64_t node{-1};
  double observed{0.0};
  double bound{0.0};
  std::string detail;

  /// "[audit] energy-conservation: node 3 at <t>: <detail> (observed ...,
  /// bound ...)" — the structured fields rendered for logs and AuditError.
  [[nodiscard]] std::string to_string() const;
};

/// The audit switches, read from the environment.
struct AuditConfig {
  /// BLAM_AUDIT=1: every slice's Network builds an Auditor.
  bool enabled{false};
  /// BLAM_AUDIT_THROW=1: throw AuditError at the first violation instead
  /// of recording it.
  bool throw_on_violation{false};
};

/// Reads BLAM_AUDIT (0|1) and BLAM_AUDIT_THROW; an unset, malformed or
/// out-of-range value leaves its switch off.
[[nodiscard]] AuditConfig audit_config_from_env();

class AuditError : public std::runtime_error {
 public:
  explicit AuditError(AuditViolation violation);
  [[nodiscard]] const AuditViolation& violation() const { return violation_; }

 private:
  AuditViolation violation_;
};

class Auditor {
 public:
  /// Violations kept for reporting per auditor and per merged report (the
  /// count is always exact).
  static constexpr std::size_t kMaxRecorded = 64;

  /// Audits the engine slice whose nodes have the ascending, unique global
  /// ids `node_ids` (std::invalid_argument otherwise). Node hooks take the
  /// global id; an id outside the slice throws std::out_of_range.
  Auditor(std::vector<std::uint32_t> node_ids, bool throw_on_violation);

  // --- hooks (called by Simulator / Node / NetworkServer) -----------------

  /// One PowerSwitch::apply interval. `stored_before`/`stored_after` are the
  /// node's TOTAL stored energy (battery + supercap) around the call;
  /// `min_store_efficiency` is the worst storage path efficiency (the
  /// supercap's when attached, else 1), bounding the legal conversion loss.
  void on_energy_flow(std::uint32_t node, Time at, Energy harvest, Energy demand,
                      const PowerFlow& flow, Energy stored_before, Energy stored_after,
                      double min_store_efficiency);

  /// Storage lost outside the switch: supercap leak, battery self-discharge,
  /// or the fade clamp. Keeps the cross-interval continuity check honest.
  void on_storage_loss(std::uint32_t node, Time at, Energy amount);

  /// Battery SoC sample against the active theta cap. A SoC above the cap is
  /// legal only while non-increasing (adaptive theta may lower the cap under
  /// the current charge); a SoC *rising* above it means charge() ignored it.
  void on_soc(std::uint32_t node, Time at, double soc, double cap);

  /// Capacity fade applied to the battery (daily refresh).
  void on_degradation(std::uint32_t node, Time at, double degradation);

  /// Event-queue pop: `event_time` must not precede the clock `now`.
  void on_event_pop(Time now, Time event_time);

  /// A transmission started at `start` occupying `airtime`; replays the
  /// ETSI T_off rule (`off = airtime * (1/duty - 1)`) independently of
  /// DutyCycleLimiter. `max_duty` = 1 disables the check.
  void on_transmission(std::uint32_t node, Time start, Time airtime, double max_duty);

  /// Node accepted an ACK; `highest_seq` is the highest uplink sequence the
  /// node has generated so far.
  void on_ack(std::uint32_t node, Time at, std::uint32_t ack_node, std::uint32_t ack_seq,
              std::uint32_t highest_seq, bool has_w, double w);

  /// Server accepted a non-duplicate uplink; `prev_seen` is the highest
  /// sequence previously delivered for the node (-1 = none).
  void on_uplink_seq(std::uint32_t node, Time at, std::int64_t seq, std::int64_t prev_seen);

  /// Gateway ledger estimate vs node ground truth at a recompute instant
  /// (called by the NetworkServer on fault-free, insulated runs only; see
  /// kFeedbackConsistency).
  void on_feedback_ledger(std::uint32_t node, Time at, double gateway_estimate,
                          double node_truth);

  // --- results -------------------------------------------------------------

  /// Total violations observed (recording is capped, counting is not).
  [[nodiscard]] std::uint64_t violation_count() const { return violation_count_; }
  /// First kMaxRecorded violations, in observation order.
  [[nodiscard]] const std::vector<AuditViolation>& violations() const { return violations_; }
  /// Invariant evaluations run.
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }

  // --- checkpoint ----------------------------------------------------------

  /// Writes the `audit` section: the counts, one ledger row per slice node
  /// in ascending id, then the recorded violations.
  void checkpoint_state(StateWriter& w) const;
  /// Reads an `audit` section into this freshly built auditor of the same
  /// slice; a damaged section throws a named std::runtime_error.
  void restore_state(StateReader& r);

 private:
  struct NodeLedger {
    bool seen_flow{false};
    /// Total stored energy after the last audited flow.
    double last_stored_j{0.0};
    /// External losses reported since that flow (leak/self-discharge/fade).
    double pending_loss_j{0.0};
    bool seen_soc{false};
    double last_soc{-1.0};
    double last_degradation{0.0};
    Time duty_next_allowed{Time::zero()};
  };

  [[nodiscard]] NodeLedger& ledger(std::uint32_t node);
  void report(AuditInvariant invariant, Time at, std::int64_t node, double observed,
              double bound, std::string detail);

  // blam-ckpt: skip -- the slice's node ids, rebuilt from the same shard plan at construction
  std::vector<std::uint32_t> node_ids_;
  // blam-ckpt: skip -- BLAM_AUDIT_THROW, re-read at construction
  bool throw_on_violation_;
  /// One row per node_ids_ entry, in the same order.
  std::vector<NodeLedger> ledgers_;
  std::vector<AuditViolation> violations_;
  std::uint64_t violation_count_{0};
  std::uint64_t checks_run_{0};
};

/// Every slice's auditor of one run as one report: exact counts, and the
/// recorded violations merged in (time, node) order, the first
/// Auditor::kMaxRecorded kept, so the report reads the same at any slice
/// count.
struct AuditReport {
  std::uint64_t checks_run{0};
  std::uint64_t violation_count{0};
  std::vector<AuditViolation> violations;

  /// "audit: N checks, M violation(s)".
  [[nodiscard]] std::string summary() const;
};

[[nodiscard]] AuditReport merge_audits(std::span<const Auditor* const> audits);

}  // namespace blam
