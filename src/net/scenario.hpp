// Scenario configuration: one struct describing a complete experiment, with
// defaults matching the paper's large-scale NS-3 setup (Sec. IV-A.1):
// up to 500 nodes within 5 km of one gateway, sampling periods drawn from
// [16, 60] minutes, 1-minute forecast windows, w_b = 1, insulated batteries
// at 25 C, and a solar source sized so peak generation comfortably covers
// transmissions (the paper scales its NREL trace the same way).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/units.hpp"
#include "core/utility.hpp"
#include "degradation/model.hpp"
#include "energy/thermal.hpp"
#include "fault/fault_plan.hpp"
#include "lora/link.hpp"
#include "lora/params.hpp"
#include "mac/device_mac.hpp"

namespace blam {

enum class PolicyKind {
  /// Plain LoRaWAN pure-ALOHA baseline.
  kLorawan,
  /// The proposed protocol (Algorithm 1 + theta cap); H-5/H-50/H-100.
  kBlam,
  /// Theta cap without window selection (paper's H-50C ablation).
  kThetaOnly,
  /// Energy-aware but lifespan-oblivious baseline: always the greenest
  /// window, no theta cap (network-lifetime-maximization stand-in).
  kGreedyGreen,
};

enum class UtilityKind { kLinear, kExponential, kStep };

enum class SfAssignment {
  /// Minimum SF that closes the uplink (NS-3's SetSpreadingFactorsUp).
  kDistanceBased,
  /// Every node uses kFixedSf.
  kFixed,
};

/// Spreading factor of SfAssignment::kFixed: SF10, the paper's testbed
/// setting and the SF of every preset scenario below.
inline constexpr SpreadingFactor kFixedSf = SpreadingFactor::kSF10;

/// Application payload of every uplink before the 4-byte SoC report: the
/// paper's 10-byte packets.
inline constexpr int kPayloadBytes = 10;

/// Battery capacity in days of estimated nominal demand. The paper requires
/// "24 hours of operation without recharging"; the nominal estimate assumes
/// one transmission per packet, so a generous factor leaves headroom for
/// retransmissions and overcast days — under it the baseline LoRaWAN battery
/// idles near full SoC, the premise of the paper's calendar-aging argument.
/// A smaller battery is a plan_deployment edit: scale each NodePlan's
/// battery_capacity.
inline constexpr double kBatteryDays = 8.0;

/// Most forecast windows one sampling period may hold. validate() enforces
/// it, so a reader of persisted results can bound a window count it reads.
inline constexpr int kMaxForecastWindows = 1 << 16;

struct ScenarioConfig {
  std::string label{"scenario"};
  std::uint64_t seed{42};

  // --- Topology -----------------------------------------------------------
  int n_nodes{100};
  double radius_m{5000.0};
  /// Gateways: one at the centre (the paper's setup), or several spread on
  /// a ring at half the radius ("one or more gateways").
  int n_gateways{1};
  /// City-scale layout: > 0 places the gateways on a centred square grid
  /// with this pitch instead of the centre/ring rule, and scatters each
  /// node inside a disk of cluster_radius_m around gateway (i mod G). This
  /// is the sharded-deployment topology — with a finite audibility floor
  /// (below) the per-cell collision domains decouple exactly.
  double gateway_grid_pitch_m{0.0};
  double cluster_radius_m{0.0};
  /// Gateway audibility floor: an uplink arriving below this power is
  /// dropped before it enters the interference tracker (counted as
  /// lost_under_sensitivity). The default is physically unreachable for
  /// every committed scenario (> 500 dB of path loss), so results are
  /// bit-identical to a build without the knob; a finite floor bounds each
  /// gateway's collision domain so the shard planner can split the
  /// deployment exactly. Must stay <= the SF12 gateway sensitivity.
  double interference_floor_dbm{-500.0};

  // --- Sharding -------------------------------------------------------------
  /// Conservative time-windowed parallel engine: split the deployment into
  /// this many collision-domain shards, each on its own thread (see
  /// sim/shard_engine.hpp). 0/1 = one whole-fleet slice. Any value produces
  /// bit-identical committed results; the BLAM_SHARDS environment variable
  /// overrides it at build time (the determinism CI leg diffs 1 vs 4).
  int shards{0};

  // --- Traffic ------------------------------------------------------------
  /// Sampling periods drawn uniformly from whole minutes in this range and
  /// fixed per node; all nodes boot at t = 0 (synchronized deployment).
  Time min_period{Time::from_minutes(16)};
  Time max_period{Time::from_minutes(60)};
  Time forecast_window{Time::from_minutes(1)};

  // --- Protocol -----------------------------------------------------------
  PolicyKind policy{PolicyKind::kLorawan};
  /// Charging cap theta (H-5/H-50/H-100 = 0.05/0.5/1.0).
  double theta{1.0};
  /// Degradation-vs-utility weight w_b.
  double w_b{1.0};
  UtilityKind utility{UtilityKind::kLinear};
  /// Closed-loop network-manager theta (extension): the server adapts each
  /// node's cap from inferred loss, piggybacked on ACKs. Applies to the
  /// capped policies (blam / theta_only). The controller runs at
  /// ThetaController::Config's defaults, starting from `theta`.
  bool adaptive_theta{false};

  // --- Radio --------------------------------------------------------------
  int uplink_channels{8};
  int downlink_channels{8};
  SfAssignment sf_assignment{SfAssignment::kFixed};
  /// Per-link shadowing; the log-distance curve itself is fixed.
  PathLossModel path_loss{};
  /// Regulatory duty cycle (ETSI T_off rule); 1.0 disables (US-915 has
  /// dwell-time limits instead of a duty cycle). Nothing committed sets it,
  /// but DutyCycleLimiter::next_allowed is a "blamsim v3" token, so it goes
  /// with the next stream format change.
  double duty_cycle{1.0};
  /// Server-side Adaptive Data Rate: piggybacks SF / TX-power adjustments
  /// on ACKs, at AdrController::Config's defaults. Off by default (the
  /// paper's evaluation fixes parameters).
  bool adr_enabled{false};

  // --- Energy -------------------------------------------------------------
  /// Solar weather. The trace is synthesized at SolarTraceConfig's defaults
  /// with its peak sized from the fleet's worst attempt; `seed` selects
  /// another weather realization for the same scenario seed.
  struct Solar {
    std::uint64_t seed{1};
  };
  Solar solar{};
  /// Solar forecast noise. Nothing committed sets it, but the forecaster's
  /// RNG state is part of the "blamsim v3" stream, so it goes with the next
  /// stream format change.
  double forecast_error_sigma{0.0};
  /// Hybrid storage (the paper's future-work extension): a supercapacitor
  /// sized to hold this many worst-case transmissions sits in front of the
  /// battery; 0 disables it.
  double supercap_tx_buffer{0.0};

  // --- Degradation --------------------------------------------------------
  DegradationParams degradation{};
  /// Outdoor-temperature extension; insulated at kInsulatedBatteryC by
  /// default (the paper's setting). An outdoor battery follows
  /// TemperatureModel around `mean_c` with ThermalConfig's default seasonal
  /// and diurnal swings.
  struct Thermal {
    bool insulated{true};
    double mean_c{15.0};

    [[nodiscard]] ThermalConfig model() const {
      ThermalConfig config;
      config.insulated = insulated;
      config.mean_c = mean_c;
      return config;
    }
  };
  Thermal thermal{};
  /// How often the gateway recomputes and disseminates w_u.
  Time dissemination_period{Time::from_days(1.0)};

  // --- Faults & graceful degradation ---------------------------------------
  /// Fault-injection plan (gateway outages, ACK-loss bursts, node crashes,
  /// harvest droughts). All-defaults means no faults: the Network then
  /// builds no FaultPlan and results are bit-identical to a build that
  /// predates the fault subsystem.
  FaultPlanConfig faults{};
  /// Staleness-aware w_u fallback: when the last gateway feedback is older
  /// than this many dissemination periods, BLAM decays its w_u toward the
  /// conservative (high-DIF-weight) regime over the same span instead of
  /// trusting the stale value. 0 disables (the paper's behavior).
  double stale_feedback_k{0.0};
  /// Bounded exponential backoff across consecutive ACK-less packets: after
  /// n straight packets end with no ACK, the next packet's transmission
  /// budget is kMaxTransmissions >> min(n, 3) (floor 1), so a node facing a
  /// dead gateway probes once per period instead of hammering the full
  /// retransmission ladder into it. Off by default.
  bool ack_failure_backoff{false};

  // --- Ingest --------------------------------------------------------------
  /// Degradation-ledger ingestion-queue watermark: piggy-backed SoC reports
  /// are staged and processed in batches of this size (1 = drain on every
  /// report, the legacy synchronous path). Any value yields bit-identical
  /// results — drain order is arrival order — so this is purely a
  /// throughput/locality knob. The BLAM_INGEST_BATCH environment variable
  /// overrides it at Network build time (the determinism CI leg uses that
  /// to diff batch 1 vs 4096 outputs).
  std::size_t ingest_batch{1};

  /// Number of forecast windows for a given sampling period.
  [[nodiscard]] int windows_for(Time period) const {
    return std::max<int>(1, static_cast<int>(period / forecast_window));
  }

  /// Human-readable protocol label (LoRaWAN / H-50 / H-50C ...).
  [[nodiscard]] std::string policy_label() const;

  /// Validates invariants; throws std::invalid_argument with a message
  /// naming the offending field.
  void validate() const;
};

/// Policy factory (one policy instance per node).
[[nodiscard]] std::unique_ptr<MacPolicy> make_policy(const ScenarioConfig& config);

/// Utility factory (shared across nodes; stateless).
[[nodiscard]] std::unique_ptr<UtilityFunction> make_utility(const ScenarioConfig& config);

/// Convenience constructors for the paper's named configurations.
[[nodiscard]] ScenarioConfig lorawan_scenario(int n_nodes, std::uint64_t seed);
[[nodiscard]] ScenarioConfig blam_scenario(int n_nodes, double theta, std::uint64_t seed);
[[nodiscard]] ScenarioConfig theta_only_scenario(int n_nodes, double theta, std::uint64_t seed);
[[nodiscard]] ScenarioConfig greedy_green_scenario(int n_nodes, std::uint64_t seed);

}  // namespace blam
