// End device: sensor node with a solar harvester, a software-defined
// battery, the class-A LoRaWAN transmission ladder, and a pluggable MAC
// policy (LoRaWAN / BLAM / theta-only).
//
// Lifecycle per sampling period (all nodes boot at t=0, synchronized
// deployment):
//   1. wake at the period boundary; integrate sleep consumption and harvest
//      since the last event through the power switch; refresh capacity fade;
//   2. generate one packet and ask the MAC policy for a forecast window
//      (BLAM runs Algorithm 1 over per-window solar forecasts and energy
//      estimates; LoRaWAN answers "window 0");
//   3. at the chosen instant run the class-A ladder: up to 8 transmissions,
//      each = TX + RX1/RX2 listen, funded green-first with the battery
//      covering deficits; no ACK by the window close => random backoff and
//      retransmit;
//   4. on ACK: update metrics, EWMA energy estimate (Eq. 13), the per-window
//      retransmission history (Eq. 14), and adopt the piggy-backed w_u.
//
// Energy bookkeeping is event-lazy: the battery state only advances at node
// events, with harvest integrated in O(1) from the cumulative solar trace —
// this is what makes 500 nodes x 15 years tractable.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "degradation/tracker.hpp"
#include "energy/battery.hpp"
#include "energy/power_switch.hpp"
#include "energy/solar.hpp"
#include "energy/supercap.hpp"
#include "energy/thermal.hpp"
#include "forecast/ewma.hpp"
#include "forecast/retx_estimator.hpp"
#include "lora/airtime.hpp"
#include "lora/channel_plan.hpp"
#include "lora/tx_timing_cache.hpp"
#include "lora/link.hpp"
#include "mac/device_mac.hpp"
#include "mac/frame.hpp"
#include "net/metrics.hpp"
#include "net/scenario.hpp"
#include "sim/simulator.hpp"

namespace blam {

class Auditor;
class Gateway;
class StateReader;
class StateWriter;

/// Cache-line aligned: a slice builds its Nodes in one block (Network), so
/// every Node starts a line and the event queue's lookahead covers it with
/// exactly EventQueue::kTargetLines lines.
class alignas(64) Node {
 public:
  /// One slice gateway a node's uplinks can reach: its local id and the
  /// path loss to it.
  struct Link {
    int gateway{0};
    double loss_db{0.0};
  };

  struct Init {
    std::uint32_t id{0};
    Position position{};
    Time period{};
    SpreadingFactor sf{SpreadingFactor::kSF10};
    /// The slice gateways an uplink at kDeviceTxPowerDbm clears the
    /// audibility floor at, in ascending local id. Slice-owned storage that
    /// outlives the node.
    std::span<const Link> audible;
    /// How many other gateways the slice has: every uplink arrives under
    /// their floor, which is a pure counter bump.
    std::uint32_t inaudible_gateways{0};
    /// Best (lowest) path loss across all of the slice's gateways.
    double min_link_loss_db{0.0};
    Energy battery_capacity{};
    double panel_scale{1.0};
  };

  /// Per-event scratch: the forecast, cost estimate and Algorithm 1 buffers
  /// of a period start, and the uplink frame of an attempt, plus the airtime
  /// memo. Nothing in the buffers outlives the event that fills them, and a
  /// slice runs its nodes' events one at a time, so every node of a slice
  /// shares the slice's one Scratch and vector capacity is retained across
  /// nodes. The memo is a pure function of TxParams, so one per slice
  /// serves every node.
  struct Scratch {
    std::vector<Energy> harvest;
    std::vector<Energy> cost;
    WindowSelector::Workspace selector;
    UplinkFrame frame;
    TxTimingCache timing;
  };

  /// What every node of one engine slice shares, owned by the slice's
  /// Network: the scenario wiring, the slice's one MAC policy, its gateway
  /// counters and the Scratch. A node holds one pointer to it.
  struct Shared {
    const ScenarioConfig* config{nullptr};
    Simulator* sim{nullptr};
    const std::vector<std::unique_ptr<Gateway>>* gateways{nullptr};
    const ChannelPlan* plan{nullptr};
    const TemperatureModel* thermal{nullptr};
    const UtilityFunction* utility{nullptr};
    MacPolicy* policy{nullptr};
    GatewayMetrics* gateway_metrics{nullptr};
    Scratch scratch;
  };

  Node(const Init& init, Shared& shared, const SolarTrace& trace, const DegradationModel& model,
       NodeMetrics& metrics, Rng rng);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Attaches the invariant auditor (nullptr = disabled): every power-switch
  /// flow, storage loss, SoC sample, fade update and accepted ACK is
  /// reported. Observe-only — results are bit-identical either way.
  /// Call before start().
  void attach_auditor(Auditor* auditor) { audit_ = auditor; }

  /// Attaches the fault-injection plan (nullptr = no faults): harvest
  /// droughts scale this node's harvest, crash events are scheduled from a
  /// dedicated per-node stream, and outage/recovery metrics activate. Call
  /// before start().
  void attach_fault_plan(const FaultPlan* faults);

  /// Schedules the first sampling period at t = 0.
  void start();

  /// Gateway delivers a decoded ACK; `ack_end` is when its airtime finishes.
  void receive_ack(const AckFrame& ack, Time ack_end);

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] Position position() const { return position_; }
  /// Path loss to a gateway this node's uplinks can reach; throws
  /// std::out_of_range for any other gateway.
  [[nodiscard]] double link_loss_db(int gateway_id) const;
  /// Best (lowest) path loss across gateways.
  [[nodiscard]] double min_link_loss_db() const { return min_link_loss_db_; }
  [[nodiscard]] SpreadingFactor sf() const { return tx_params_.sf; }
  /// Current radio parameters in ADR-command form (what the server adjusts).
  [[nodiscard]] AdrCommand radio_params() const {
    return AdrCommand{tx_params_.sf, tx_params_.tx_power_dbm};
  }
  [[nodiscard]] Time period() const { return period_; }
  /// The per-window retransmission history (Eq. 14); nothing else exposes
  /// its rows.
  // blam-analyze: allow(N1) -- invariant probe; StateFuzz.SparseRowForgeriesNameTheirError
  [[nodiscard]] const RetxEstimator& retx_estimator() const { return retx_estimator_; }
  [[nodiscard]] double w_u() const { return w_u_; }
  [[nodiscard]] const Battery& battery() const { return battery_; }
  [[nodiscard]] const Supercap* supercap() const {
    return supercap_.has_value() ? &*supercap_ : nullptr;
  }
  [[nodiscard]] const DegradationTracker& tracker() const { return tracker_; }
  /// Theta: this node's stored-energy ceiling as a fraction of original
  /// capacity (the policy's boot value until the network manager moves it).
  [[nodiscard]] double soc_cap() const { return switch_.soc_cap(); }

  /// Ground-truth degradation right now (advances the SoC integral virtually).
  [[nodiscard]] double degradation_now(Time now) const { return tracker_.degradation(now); }

  /// Copies degradation ground truth into the metrics record.
  void finalize_metrics(Time now);

  /// Serializes everything that diverges from a freshly constructed node —
  /// radio params, RNG streams, storage, estimators, the in-flight packet,
  /// the metrics row, and every pending event — into an engine checkpoint
  /// (see sim/checkpoint.hpp).
  void checkpoint_state(StateWriter& w) const;

  /// Restores state captured by checkpoint_state into a freshly built node
  /// whose event queue has been cleared; re-schedules this node's pending
  /// events under their original sequence numbers.
  void restore_state(StateReader& r);

 private:
  void on_period_start();
  void start_attempt();
  void on_ack_timeout();

  /// Crash/reboot fault: wipes volatile estimator state (EWMA, retx
  /// histogram, w_u) and keeps the node dark for the reboot duration.
  void on_crash();
  void schedule_next_crash();

  /// Integrates sleep consumption + harvest over [last_account_, now].
  void account_to(Time now);

  /// Routes one interval through the power switch; with an auditor attached
  /// the flow plus the surrounding total-storage snapshot is reported.
  PowerFlow apply_flow(Energy harvest, Energy demand, Time at);

  /// Total stored energy right now (battery + supercap).
  [[nodiscard]] Energy total_stored() const {
    return supercap_.has_value() ? battery_.stored() + supercap_->stored() : battery_.stored();
  }

  /// Harvest over [t0, t1], with the fault plan's drought scaling applied
  /// when one is attached.
  [[nodiscard]] Energy harvest_between(Time t0, Time t1) const;

  [[nodiscard]] const ScenarioConfig& config() const { return *shared_->config; }
  [[nodiscard]] Simulator& sim() const { return *shared_->sim; }
  [[nodiscard]] MacPolicy& policy() const { return *shared_->policy; }

  /// Energy one transmission attempt costs: TX airtime + both RX windows.
  [[nodiscard]] Energy attempt_demand(const TxParams& params) const;

  /// Span an attempt occupies: airtime + RX2 delay + RX window.
  [[nodiscard]] Time attempt_span(const TxParams& params) const;

  void record_soc(Time t);
  void update_capacity_fade(Time now);
  /// Applies a server ADR command: new SF / TX power, refreshed energy
  /// constants (the EWMA then converges to the new per-attempt cost).
  void apply_adr(const AdrCommand& command);
  /// Shared failure path: latency penalty, optional estimator updates.
  /// Callers bump the counter matching the failure cause.
  void abort_packet(bool record_history);
  /// Fills and returns the slice's frame scratch (valid until any node of
  /// the slice builds its next frame); receivers copy what they keep.
  [[nodiscard]] const UplinkFrame& build_frame();

  // --- identity / configuration -------------------------------------------
  std::uint32_t id_;
  // blam-ckpt: skip -- deployment output; plan_deployment replays deterministically from the scenario seed
  Position position_;
  // blam-ckpt: skip -- deployment output; plan_deployment replays deterministically from the scenario seed
  Time period_;
  // blam-ckpt: skip -- derived from the scenario (windows_for) at construction
  int n_windows_;
  // blam-ckpt: skip -- deployment output; plan_deployment replays deterministically from the scenario seed
  std::uint32_t inaudible_gateways_;
  TxParams tx_params_;
  // blam-ckpt: skip -- deployment output; plan_deployment replays deterministically from the scenario seed
  std::span<const Link> links_;
  // blam-ckpt: skip -- deployment output; plan_deployment replays deterministically from the scenario seed
  double min_link_loss_db_;
  // blam-ckpt: skip -- wiring; the slice's shared state, re-attached at construction
  Shared* shared_;
  NodeMetrics* metrics_;
  // blam-ckpt: skip -- wiring; fault-plan state rides in the engine slice's faults section
  const FaultPlan* faults_{nullptr};
  // blam-ckpt: skip -- wiring, re-attached at construction; Network checkpoints the auditor
  Auditor* audit_{nullptr};

  // --- energy subsystem ----------------------------------------------------
  Battery battery_;
  Harvester harvester_;
  std::optional<Supercap> supercap_;
  PowerSwitch switch_;
  DegradationTracker tracker_;
  Ewma etx_ewma_;
  RetxEstimator retx_estimator_;
  Rng rng_;

  // --- running state -------------------------------------------------------
  Time last_account_{Time::zero()};
  Time last_fade_update_{Time::zero()};
  double w_u_{0.0};
  /// When w_u was last refreshed from an ACK (staleness clock; boot = 0).
  Time last_w_update_{Time::zero()};
  /// Most recent delivered packet (recovery-time observability).
  Time last_delivery_at_{Time::zero()};
  /// Straight confirmed packets that ended without any ACK (drives the
  /// bounded exponential backoff when ScenarioConfig::ack_failure_backoff).
  int consecutive_ackless_{0};
  /// Crash/reboot fault state: the node is dark until this instant.
  Time rebooting_until_{Time::zero()};
  std::optional<Rng> crash_rng_;
  std::uint32_t next_seq_{1};
  /// SoC-report generation counter (volatile MCU state: resets on crash,
  /// which is how the gateway ledger detects the reboot). Incremented once
  /// per packet that carries a report; retransmissions of the same packet
  /// reuse the generation.
  std::uint16_t report_seq_{0};
  /// Packet seq the current report generation was stamped for.
  std::uint32_t last_report_packet_{0};
  // blam-ckpt: skip -- derived constant, recomputed from TxParams at construction and on ADR changes
  Energy single_attempt_energy_{};  // one TX + RX windows; EWMA warm-up value
  // blam-ckpt: skip -- derived constant, recomputed from TxParams at construction and on ADR changes
  Energy max_packet_energy_{};      // DIF normalizer: full retransmission budget

  struct Pending {
    bool active{false};
    std::uint32_t seq{0};
    Time generated_at{};
    int window{0};
    int transmissions{0};  // completed transmissions of this packet
    Energy spent{};        // TX energy spent on this packet so far
    EventHandle timeout{};
    /// Backoff-scheduled retransmission; must be cancelled whenever the
    /// packet resolves, or the stale event fires into the next packet.
    EventHandle retx{};
  };
  Pending pending_;

  // Owned standalone events (checkpointed alongside Pending's handles).
  /// The next on_period_start event (always armed while the sim runs).
  EventHandle period_event_{};
  /// The next on_crash event (armed iff crash faults are enabled).
  EventHandle crash_event_{};
  /// The start_attempt event placed inside the chosen forecast window; a
  /// crash can abort the packet while this is still pending (it then fires
  /// as a guarded no-op, which still counts as an executed event).
  EventHandle window_tx_{};

  // SoC transition points for the next uplink report (paper: two points).
  SocSample period_start_sample_{};
  SocSample latest_sample_{};
  bool has_samples_{false};
};

}  // namespace blam
