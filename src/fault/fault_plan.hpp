// Deterministic fault-injection plan (gateway outages, downlink ACK-loss
// bursts, node crash/reboot events, solar harvest droughts).
//
// A FaultPlan is built once per Network from the scenario's fault config and
// a dedicated Rng stream forked off the scenario seed. Every fault source
// draws from its own child stream (Rng::fork with a source-specific salt),
// so enabling one fault never perturbs the draws of another — and enabling
// faults at all never perturbs the channel/traffic/topology streams, which
// keeps fault-free results bit-identical to a scenario without a plan.
//
// Gateway outages are materialized lazily as a merged, sorted interval list
// (fixed daily windows plus a Poisson process of random outages) extended on
// demand as the simulation clock advances; every query is a binary search.
// The downlink ACK-loss channel is a continuous-time Gilbert-Elliott chain
// per gateway. Crash times are exposed as per-node Rng streams the node
// samples between reboots. The drought scales harvested energy over one
// configured interval; Node splits its harvest integrals at the drought
// boundaries so the accounting stays exact.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "energy/solar.hpp"
#include "fault/gilbert_elliott.hpp"

namespace blam {

struct FaultPlanConfig {
  // --- (a) gateway outage windows ----------------------------------------
  /// Fixed daily outage: the gateway is dead during
  /// [k*day + daily_start, k*day + daily_start + daily_duration) for every
  /// day k. Zero duration disables.
  Time outage_daily_start{Time::zero()};
  Time outage_daily_duration{Time::zero()};
  /// Random outages: Poisson arrivals at this expected rate per day, each
  /// lasting 15 min to 2 h (uniform). Zero disables.
  double outage_random_per_day{0.0};

  // --- (b) downlink ACK-loss bursts (Gilbert-Elliott) --------------------
  /// Per-ACK loss probability in the good / bad channel state (mean
  /// sojourns 4 h / 10 min). Both zero disables the channel entirely (no
  /// chain is created, no draws consumed).
  double ack_loss_good{0.0};
  double ack_loss_bad{0.0};

  // --- (c) node crash / reboot -------------------------------------------
  /// Expected crashes per node per year (Poisson). A crash wipes the node's
  /// volatile estimator state (EWMA, retransmission histogram, w_u) and the
  /// node stays dark for 10 min while it reboots. Zero disables.
  double crash_per_year{0.0};

  // --- (e) SoC-report channel faults -------------------------------------
  /// Per-report probabilities of the feedback-pipe faults applied to each
  /// piggy-backed SoC report between PHY delivery and ledger ingestion:
  /// drop, duplicate delivery, reorder (swapped with the node's next
  /// report), single-bit corruption and sample truncation. Mutually
  /// exclusive per report (at most one fault fires); their sum must be
  /// <= 1. All zero disables the channel (no streams forked, no draws).
  double report_loss{0.0};
  double report_dup{0.0};
  double report_reorder{0.0};
  double report_corrupt{0.0};
  double report_truncate{0.0};

  // --- (d) solar harvest drought -----------------------------------------
  /// Harvested energy is multiplied by drought_scale inside
  /// [drought_start, drought_start + drought_duration). Zero duration or a
  /// scale of 1 disables.
  Time drought_start{Time::zero()};
  Time drought_duration{Time::zero()};
  double drought_scale{1.0};

  /// True when at least one fault source is active; the Network only builds
  /// a FaultPlan (and forks its Rng streams) in that case.
  [[nodiscard]] bool any() const;
  [[nodiscard]] bool outages_enabled() const;
  [[nodiscard]] bool ack_loss_enabled() const;
  [[nodiscard]] bool crashes_enabled() const;
  [[nodiscard]] bool drought_enabled() const;
  [[nodiscard]] bool reports_enabled() const;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

class FaultPlan {
 public:
  /// `base` must be a stream dedicated to fault injection (the Network
  /// forks it off the scenario root with a fault-specific salt).
  FaultPlan(const FaultPlanConfig& config, Rng base);

  [[nodiscard]] const FaultPlanConfig& config() const { return config_; }

  // --- gateway outages ----------------------------------------------------
  /// True when the gateway backhaul is down at `t`.
  [[nodiscard]] bool gateway_out(Time t) const;

  /// Total outage duration within [0, t].
  [[nodiscard]] Time outage_seconds_until(Time t) const;

  /// End of the most recent outage that completed at or before `t`;
  /// Time::zero() when no outage has completed yet.
  [[nodiscard]] Time last_outage_end_before(Time t) const;

  // --- downlink ACK loss --------------------------------------------------
  /// Whether the ACK a gateway transmits at `t` is lost to the burst
  /// channel. Each gateway id owns an independent chain.
  [[nodiscard]] bool downlink_lost(int gateway_id, Time t);

  // --- node crashes ---------------------------------------------------------
  /// Independent per-node stream for crash inter-arrival draws.
  [[nodiscard]] Rng crash_stream(std::uint32_t node_id) const;

  // --- SoC-report channel -----------------------------------------------
  /// Independent per-node stream for report-fault draws (consumed by the
  /// ReportFaultChannel lane for that node).
  [[nodiscard]] Rng report_stream(std::uint32_t node_id) const;

  // --- harvest drought ------------------------------------------------------
  /// Instantaneous harvest scale factor at `t` (1 outside the drought).
  [[nodiscard]] double drought_scale_at(Time t) const;

  /// Time-weighted average scale over [t0, t1] (forecast adjustment).
  [[nodiscard]] double drought_factor(Time t0, Time t1) const;

  /// Exact harvested energy over [t0, t1] with the drought applied: the
  /// integral splits at the drought boundaries, each piece scaled.
  [[nodiscard]] Energy scaled_harvest(const Harvester& harvester, Time t0, Time t1) const;

  // --- engine checkpoints ---------------------------------------------------
  /// The plan's only state that cannot be regenerated from (config, seed)
  /// on demand: the lazily-created per-gateway downlink burst chains, which
  /// advance with every ACK query. The outage schedule is deliberately NOT
  /// part of this — it is a pure function of (config, seed) and
  /// rematerializes identically on the restored plan's first query.
  [[nodiscard]] std::vector<std::pair<int, GilbertElliott::State>> channel_states() const;

  /// Rebuilds the chain map from checkpointed states: each chain is
  /// re-forked exactly as downlink_lost() would create it, then fast-
  /// forwarded to its captured state.
  void restore_channel_states(const std::vector<std::pair<int, GilbertElliott::State>>& states);

 private:
  struct Interval {
    Time start;
    Time end;
  };

  /// Extends the merged outage-interval list to cover at least `t`.
  void ensure_outages(Time t) const;
  void rebuild_prefix() const;

  // blam-ckpt: skip -- construction input; the plan is rebuilt from the same ScenarioConfig::faults
  FaultPlanConfig config_;
  Rng base_;

  // Lazily materialized outage schedule (mutable: queries are logically
  // const, the schedule is deterministic in (config, seed) alone).
  // blam-ckpt: skip -- lazily materialized schedule state, deterministic in (config, seed) alone
  mutable Rng outage_rng_;
  // blam-ckpt: skip -- lazily materialized schedule, deterministic in (config, seed) alone
  mutable std::vector<Interval> outages_;       // merged, sorted
  // blam-ckpt: skip -- derived from outages_, rebuilt by rebuild_prefix()
  mutable std::vector<double> outage_prefix_s_; // cumulative seconds up to outages_[i].end
  // blam-ckpt: skip -- lazily materialized schedule cursor, deterministic in (config, seed) alone
  mutable Time outage_horizon_{Time::zero()};
  // blam-ckpt: skip -- lazily materialized schedule cursor, deterministic in (config, seed) alone
  mutable Time next_random_start_{Time::zero()};
  // blam-ckpt: skip -- lazily materialized schedule cursor, deterministic in (config, seed) alone
  mutable std::int64_t next_daily_day_{0};
  // blam-ckpt: skip -- lazily materialized schedule latch, deterministic in (config, seed) alone
  mutable bool random_seeded_{false};

  std::map<int, GilbertElliott> ack_channels_;  // per gateway id
};

}  // namespace blam
