// Sharded engine: planner decomposition, serial fallbacks, the epoch
// barrier, and — the load-bearing property — bit-identical results against
// a whole-fleet Network at any shard count. Test names carry "ShardEngine" so
// the CI tsan leg can select this file with a ctest regex.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/state_codec.hpp"
#include "env_guard.hpp"
#include "sim/shard_engine.hpp"
#include "sim/sweep_runner.hpp"

namespace blam {
namespace {

/// City layout that decomposes exactly: gateways on a 12 km grid, nodes
/// clustered within 1 km of their cell's gateway, no shadowing. The nearest
/// foreign gateway sits >= 11 km out (path loss >= 159.7 dB, rx <= -145.7
/// dBm), below the -143 dBm audibility floor; in-cell links stay above
/// -106.5 dBm. Every cell is its own collision domain.
ScenarioConfig city(int nodes, int gateways, int shards, std::uint64_t seed = 21) {
  ScenarioConfig c;
  c.policy = PolicyKind::kBlam;
  c.theta = 0.5;
  c.n_nodes = nodes;
  c.n_gateways = gateways;
  c.gateway_grid_pitch_m = 12000.0;
  c.cluster_radius_m = 1000.0;
  c.interference_floor_dbm = -143.0;
  c.sf_assignment = SfAssignment::kDistanceBased;
  c.shards = shards;
  c.seed = seed;
  c.label = c.policy_label();
  return c;
}

/// Hand-built deployment for planner unit tests: losses[i][g] in dB.
DeploymentPlan make_deployment(std::vector<Position> gateways,
                               std::vector<std::vector<double>> losses,
                               SpreadingFactor sf = SpreadingFactor::kSF7) {
  DeploymentPlan d;
  d.gateway_positions = std::move(gateways);
  for (const auto& row : losses) {
    d.link_losses_db.insert(d.link_losses_db.end(), row.begin(), row.end());
    NodePlan node;
    node.best_loss_db = *std::min_element(row.begin(), row.end());
    node.sf = sf;
    node.period = Time::from_minutes(16.0);
    node.battery_capacity = Energy::from_joules(100.0);
    d.nodes.push_back(node);
  }
  return d;
}

/// Every node's metric rows, the gateway row, the ledger counters and the
/// total outage, as state-codec bytes. The serial reason is left out: a
/// one-slice engine records why it did not shard.
std::string metric_rows(const Metrics& m) {
  std::ostringstream out;
  StateWriter w{out};
  w.begin_section("metrics");
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    write_node_metrics(w, m.node(i));
    write_node_battery(w, m.node(i));
  }
  write_gateway_metrics(w, m.gateway());
  const NetworkSummary summary = m.summarize();
  write_ledger_counters(w, summary.feedback);
  w.put_double(summary.total_outage_s);
  w.end_section();
  return std::move(out).str();
}

void expect_identical(const Metrics& serial, const Metrics& sharded, std::size_t n_nodes) {
  ASSERT_EQ(serial.node_count(), n_nodes);
  EXPECT_EQ(metric_rows(serial), metric_rows(sharded));
}

TEST(ShardEnginePlanner, SingleGatewayIsOneDomain) {
  const ScenarioConfig c = city(40, 1, 4);
  const Rng root{c.seed, 0};
  const ShardPlan plan = plan_shards(c, plan_deployment(c, root), 4);
  EXPECT_TRUE(plan.serial);
  EXPECT_EQ(plan.domains, 1);
  EXPECT_EQ(plan.serial_reason, "single collision domain");
}

TEST(ShardEnginePlanner, DefaultFloorCouplesEverything) {
  // The default -500 dBm floor makes every gateway audible to every node:
  // one domain, serial fold — exactly why pre-existing scenarios cannot
  // change behaviour under any BLAM_SHARDS value.
  ScenarioConfig c = city(40, 4, 4);
  c.interference_floor_dbm = -500.0;
  const Rng root{c.seed, 0};
  const ShardPlan plan = plan_shards(c, plan_deployment(c, root), 4);
  EXPECT_TRUE(plan.serial);
  EXPECT_EQ(plan.domains, 1);
}

TEST(ShardEnginePlanner, CityDecomposesIntoCells) {
  const ScenarioConfig c = city(64, 4, 4);
  const Rng root{c.seed, 0};
  const DeploymentPlan deployment = plan_deployment(c, root);
  const ShardPlan plan = plan_shards(c, deployment, 4);
  ASSERT_FALSE(plan.serial);
  EXPECT_EQ(plan.domains, 4);
  EXPECT_EQ(plan.effective, 4);
  // A node shares a shard with the gateways of its own domain.
  for (std::size_t i = 0; i < deployment.nodes.size(); ++i) {
    const int g = static_cast<int>(i % 4);
    EXPECT_EQ(plan.shard_of_node[i], plan.shard_of_gateway[static_cast<std::size_t>(g)]);
  }
}

TEST(ShardEnginePlanner, BoundaryNodeFoldsDomains) {
  // Three isolated cells; one boundary node hears gateways 0 AND 1 above
  // the floor, welding their cells into one domain. Gateway 2 stays alone.
  ScenarioConfig c = city(4, 3, 4);
  // Audibility at the -143 dBm floor and 14 dBm TX: loss <= 157 dB couples,
  // loss >= 170 dB does not.
  const auto deployment = make_deployment(
      {{0.0, 0.0}, {12000.0, 0.0}, {24000.0, 0.0}},
      {{120.0, 170.0, 180.0},     // node 0: only gw0 audible (rx -106 dBm)
       {130.0, 135.0, 170.0},     // node 1: BOUNDARY, gw0 and gw1 audible
       {170.0, 120.0, 180.0},     // node 2: only gw1
       {180.0, 170.0, 120.0}});   // node 3: only gw2
  const ShardPlan plan = plan_shards(c, deployment, 4);
  ASSERT_FALSE(plan.serial);
  EXPECT_EQ(plan.domains, 2);
  EXPECT_EQ(plan.effective, 2);
  EXPECT_EQ(plan.domain_of_gateway[0], plan.domain_of_gateway[1]);
  EXPECT_NE(plan.domain_of_gateway[0], plan.domain_of_gateway[2]);
  // The boundary node lands in the welded domain's shard.
  EXPECT_EQ(plan.shard_of_node[1], plan.shard_of_gateway[0]);
}

TEST(ShardEnginePlanner, SerialFallbackConditions) {
  const Rng root{21, 0};
  {
    ScenarioConfig c = city(16, 4, 4);
    const ShardPlan plan = plan_shards(c, plan_deployment(c, root), 1);
    EXPECT_TRUE(plan.serial);
    EXPECT_EQ(plan.serial_reason, "shards <= 1 requested");
    // A one-slice plan still maps every gateway and node (to slice 0).
    EXPECT_EQ(plan.shard_of_gateway, std::vector<int>(4, 0));
    EXPECT_EQ(plan.shard_of_node, std::vector<int>(16, 0));
  }
  {
    // Nor does auditing: each slice's auditor checks its own nodes.
    const EnvGuard audit{"BLAM_AUDIT", "1"};
    ScenarioConfig c = city(16, 4, 4);
    EXPECT_FALSE(plan_shards(c, plan_deployment(c, root), 4).serial);
  }
  {
    // Fault injection no longer forces serial: each shard rebuilds the full
    // FaultPlan from the 0xfa17 fork and its streams are keyed by global
    // gateway / node ids.
    ScenarioConfig c = city(16, 4, 4);
    c.faults.outage_random_per_day = 1.0;
    EXPECT_FALSE(plan_shards(c, plan_deployment(c, root), 4).serial);
  }
  {
    // Nor does ADR: it never raises a node above kDeviceTxPowerDbm, the
    // power the planner cuts domains at.
    ScenarioConfig c = city(16, 4, 4);
    c.adr_enabled = true;
    EXPECT_FALSE(plan_shards(c, plan_deployment(c, root), 4).serial);
  }
}

TEST(ShardEnginePlanner, ResolveShardsEnvOverride) {
  ASSERT_EQ(setenv("BLAM_SHARDS", "8", 1), 0);
  EXPECT_EQ(resolve_shards(2), 8);
  ASSERT_EQ(setenv("BLAM_SHARDS", "0", 1), 0);
  EXPECT_EQ(resolve_shards(2), 0);
  ASSERT_EQ(setenv("BLAM_SHARDS", "nope", 1), 0);
  EXPECT_EQ(resolve_shards(2), 2);
  ASSERT_EQ(setenv("BLAM_SHARDS", "-3", 1), 0);
  EXPECT_EQ(resolve_shards(2), 2);
  ASSERT_EQ(unsetenv("BLAM_SHARDS"), 0);
  EXPECT_EQ(resolve_shards(3), 3);
}

TEST(ShardEngineIdentity, TwoShardsBitIdenticalToSerial) {
  // The non-negotiable: a 4-cell city on 2 shards reproduces the serial
  // engine bit for bit — every node row, the compensated gateway counters,
  // the ledger counters, and the disseminated w_u values.
  const ScenarioConfig c = city(48, 4, 2);
  const Time duration = Time::from_days(2.0);

  Network serial{c};
  serial.run_until(duration);
  serial.finalize_metrics();

  ShardedNetwork sharded{c};
  ASSERT_FALSE(sharded.serial());
  EXPECT_EQ(sharded.plan().effective, 2);
  // Split the run to prove repeated increasing targets (campaign slicing,
  // run_until_eol stepping) hit the same epoch boundaries.
  sharded.run_until(Time::from_days(0.7));
  sharded.run_until(duration);
  sharded.finalize_metrics();

  expect_identical(serial.metrics(), sharded.metrics(), 48);
  EXPECT_EQ(serial.max_degradation(), sharded.max_degradation());
  for (std::uint32_t id = 0; id < 48; ++id) {
    EXPECT_EQ(serial.server().w_for(id), sharded.w_for(id)) << "node " << id;
  }
}

TEST(ShardEngineIdentity, FaultedFourShardsBitIdenticalToSerial) {
  // Kitchen-sink fault injection across four shards: daily + random gateway
  // outages, Gilbert-Elliott ACK loss, node crashes, report-pipe faults,
  // and a solar drought. Each shard rebuilds the full FaultPlan from the
  // same 0xfa17 fork; the per-gateway / per-node streams must regenerate
  // the serial draws exactly.
  ScenarioConfig c = city(48, 4, 4);
  c.faults.outage_daily_start = Time::from_hours(9.0);
  c.faults.outage_daily_duration = Time::from_hours(2.0);
  c.faults.outage_random_per_day = 1.0;
  c.faults.ack_loss_good = 0.02;
  c.faults.ack_loss_bad = 0.8;
  c.faults.crash_per_year = 24.0;
  c.faults.report_loss = 0.1;
  c.faults.report_reorder = 0.1;
  c.faults.report_corrupt = 0.05;
  c.faults.drought_start = Time::from_days(0.5);
  c.faults.drought_duration = Time::from_days(1.0);
  c.faults.drought_scale = 0.3;
  const Time duration = Time::from_days(2.0);

  Network serial{c};
  serial.run_until(duration);
  serial.finalize_metrics();

  ShardedNetwork sharded{c};
  ASSERT_FALSE(sharded.serial());
  EXPECT_EQ(sharded.plan().effective, 4);
  sharded.run_until(Time::from_days(0.7));
  sharded.run_until(duration);
  sharded.finalize_metrics();

  expect_identical(serial.metrics(), sharded.metrics(), 48);
  EXPECT_GT(sharded.metrics().summarize().total_outage_s, 0.0);
  EXPECT_EQ(serial.max_degradation(), sharded.max_degradation());
  for (std::uint32_t id = 0; id < 48; ++id) {
    EXPECT_EQ(serial.server().w_for(id), sharded.w_for(id)) << "node " << id;
  }
}

TEST(ShardEngineIdentity, AdrFourShardsBitIdenticalToSerial) {
  // ADR steps SF and power down and climbs back to at most
  // kDeviceTxPowerDbm, the power the planner cuts domains at, and a node's
  // SNR history lives in its own domain's server. So an ADR city splits
  // like any other and reproduces the one-slice run bit for bit.
  ScenarioConfig c = city(300, 16, 4);
  c.adr_enabled = true;
  const Time duration = Time::from_days(2.0);

  Network serial{c};
  serial.run_until(duration);
  serial.finalize_metrics();
  int stepped_down = 0;
  for (const Node& node : serial.nodes()) {
    EXPECT_LE(node.radio_params().tx_power_dbm, kDeviceTxPowerDbm);
    if (node.radio_params().tx_power_dbm < kDeviceTxPowerDbm) ++stepped_down;
  }
  ASSERT_GT(stepped_down, 0) << "ADR never acted; the test would prove nothing";

  ShardedNetwork sharded{c};
  ASSERT_FALSE(sharded.serial());
  EXPECT_EQ(sharded.plan().effective, 4);
  sharded.run_until(Time::from_days(0.7));
  sharded.run_until(duration);
  sharded.finalize_metrics();

  expect_identical(serial.metrics(), sharded.metrics(), 300);
  EXPECT_EQ(serial.max_degradation(), sharded.max_degradation());
  for (std::uint32_t id = 0; id < 300; ++id) {
    EXPECT_EQ(serial.server().w_for(id), sharded.w_for(id)) << "node " << id;
  }
}

TEST(ShardEngineIdentity, AuditedFourShardsBitIdenticalToSerial) {
  // Every slice audits its own nodes (the feedback-consistency probe
  // included: the run is fault-free) and its own event queue. The audited
  // split run reproduces the unaudited one-slice run bit for bit.
  const ScenarioConfig c = city(48, 4, 4);
  const Time duration = Time::from_days(2.0);

  ScenarioConfig one_slice = c;
  one_slice.shards = 1;
  ShardedNetwork serial{one_slice};
  ASSERT_FALSE(serial.audit_report().has_value());
  serial.run_until(duration);
  serial.finalize_metrics();

  const EnvGuard audit{"BLAM_AUDIT", "1"};
  ShardedNetwork sharded{c};
  ASSERT_FALSE(sharded.serial());
  ASSERT_EQ(sharded.plan().effective, 4);
  sharded.run_until(Time::from_days(0.7));
  sharded.run_until(duration);
  sharded.finalize_metrics();

  std::uint64_t checks = 0;
  for (int s = 0; s < sharded.plan().effective; ++s) {
    const Auditor* slice_audit = sharded.slice(s).auditor();
    ASSERT_NE(slice_audit, nullptr) << "slice " << s;
    EXPECT_GT(slice_audit->checks_run(), 0u) << "slice " << s;
    checks += slice_audit->checks_run();
  }
  const std::optional<AuditReport> report = sharded.audit_report();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->checks_run, checks);
  EXPECT_EQ(report->violation_count, 0u)
      << (report->violations.empty() ? std::string{} : report->violations[0].to_string());

  expect_identical(serial.metrics(), sharded.metrics(), 48);
  EXPECT_EQ(serial.max_degradation(), sharded.max_degradation());
  for (std::uint32_t id = 0; id < 48; ++id) {
    EXPECT_EQ(serial.w_for(id), sharded.w_for(id)) << "node " << id;
  }
}

TEST(ShardEngineFallback, SerialReasonSurfacesInMergedMetrics) {
  // A run that requests shards but degenerates to serial must say so in the
  // summary; a genuinely sharded run leaves the field empty.
  ShardedNetwork fallback{city(8, 1, 4)};
  ASSERT_TRUE(fallback.serial());
  fallback.run_until(Time::from_hours(1.0));
  fallback.finalize_metrics();
  EXPECT_EQ(fallback.metrics().summarize().serial_reason, "single collision domain");

  ShardedNetwork sharded{city(16, 4, 2)};
  ASSERT_FALSE(sharded.serial());
  sharded.run_until(Time::from_hours(1.0));
  sharded.finalize_metrics();
  EXPECT_TRUE(sharded.metrics().summarize().serial_reason.empty());
}

TEST(ShardEngineIdentity, FourShardsMatchTwoShards) {
  const ScenarioConfig c = city(32, 4, 2);
  const Time duration = Time::from_days(1.0);
  ShardedNetwork two{c};
  ScenarioConfig c4 = c;
  c4.shards = 4;
  ShardedNetwork four{c4};
  ASSERT_FALSE(two.serial());
  ASSERT_FALSE(four.serial());
  two.run_until(duration);
  four.run_until(duration);
  two.finalize_metrics();
  four.finalize_metrics();
  expect_identical(two.metrics(), four.metrics(), 32);
}

TEST(ShardEngineIdentity, EventExactlyOnEpochBoundary) {
  // Sampling period == dissemination period: every uplink lands exactly on
  // an epoch boundary, together with the w_u recompute. The boundary event
  // must execute inside the window it terminates, once, on every shard.
  ScenarioConfig c = city(16, 4, 4);
  c.min_period = Time::from_minutes(16.0);
  c.max_period = Time::from_minutes(16.0);
  c.dissemination_period = Time::from_minutes(16.0);
  const Time duration = Time::from_hours(8.0);

  Network serial{c};
  serial.run_until(duration);
  serial.finalize_metrics();

  ShardedNetwork sharded{c};
  ASSERT_FALSE(sharded.serial());
  sharded.run_until(duration);
  sharded.finalize_metrics();

  expect_identical(serial.metrics(), sharded.metrics(), 16);
  ASSERT_GT(serial.metrics().node(0).generated, 0u);
}

TEST(ShardEngineIdentity, SerialDelegateMatchesNetworkExactly) {
  // A one-slice run is the whole-fleet Network, epoch loop and all: even
  // events_executed (which extra slices are allowed to change) must match.
  // Only a one-slice request keeps the four-domain city on one slice.
  const ScenarioConfig c = city(16, 4, 1);
  const Time duration = Time::from_days(1.0);
  Network plain{c};
  plain.run_until(duration);
  plain.finalize_metrics();
  ShardedNetwork wrapped{c};
  ASSERT_TRUE(wrapped.serial());
  EXPECT_EQ(wrapped.plan().serial_reason, "shards <= 1 requested");
  wrapped.run_until(duration);
  wrapped.finalize_metrics();
  expect_identical(plain.metrics(), wrapped.metrics(), 16);
  EXPECT_EQ(plain.simulator().events_executed(), wrapped.events_executed());
}

/// Each node's counter fields (every NodeMetrics field but the five battery
/// ones finalize_metrics() fills), as state-codec bytes, by global id.
std::vector<std::string> counter_rows(const Metrics& m) {
  std::vector<std::string> rows;
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    std::ostringstream out;
    StateWriter w{out};
    w.begin_section("row");
    write_node_metrics(w, m.node(i));
    w.end_section();
    rows.push_back(std::move(out).str());
  }
  return rows;
}

void expect_rows_equal(const std::vector<std::string>& expected, const Metrics& actual) {
  const std::vector<std::string> rows = counter_rows(actual);
  ASSERT_EQ(rows.size(), expected.size());
  for (std::size_t id = 0; id < rows.size(); ++id) {
    EXPECT_EQ(rows[id], expected[id]) << "node " << id;
  }
}

TEST(ShardEngineIdentity, FleetRowsAreLiveAndKeyedByGlobalId) {
  // The engine keeps one row per node, which every slice's nodes write in
  // place: mid-run, before any finalize_metrics(), row `id` already equals
  // the whole-fleet Network's row `id`; a restored engine's rows equal the
  // checkpointed ones; and finalizing twice changes nothing. Under tsan this
  // also checks that slices writing disjoint rows of one table do not race.
  const Time mid = Time::from_days(1.3);
  const Time end = Time::from_days(2.0);
  Network whole{city(48, 4, 1)};
  whole.run_until(mid);
  const std::vector<std::string> at_mid = counter_rows(whole.metrics());
  ASSERT_GT(whole.metrics().node(47).generated, 0u);
  whole.run_until(end);
  whole.finalize_metrics();
  const std::string at_end = metric_rows(whole.metrics());

  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE(shards);
    ShardedNetwork engine{city(48, 4, shards)};
    ASSERT_EQ(engine.plan().effective, shards);
    engine.run_until(mid);
    expect_rows_equal(at_mid, engine.metrics());

    std::stringstream stream;
    engine.checkpoint(stream);
    ShardedNetwork restored{city(48, 4, shards)};
    restored.restore(stream);
    expect_rows_equal(at_mid, restored.metrics());

    restored.run_until(end);
    restored.finalize_metrics();
    const std::string once = metric_rows(restored.metrics());
    EXPECT_EQ(once, at_end);
    restored.finalize_metrics();
    EXPECT_EQ(metric_rows(restored.metrics()), once);
  }
}

TEST(ShardEngineIdentity, UnknownNodeWForThrowsAtEveryShardCount) {
  // One lookup path: an id past the fleet throws at any shard count, both
  // before the first w_u recompute and after it; a known id reads 0 until
  // the first recompute.
  for (const int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    ShardedNetwork net{city(16, 4, shards)};
    ASSERT_EQ(net.plan().effective, shards);
    EXPECT_EQ(net.w_for(15), 0.0);
    EXPECT_THROW((void)net.w_for(16), std::out_of_range);
    net.run_until(Time::from_days(1.5));
    EXPECT_THROW((void)net.w_for(16), std::out_of_range);
    EXPECT_THROW((void)net.w_for(0xffffffffU), std::out_of_range);
  }
}

TEST(ShardEngineNodeView, NodeByIdEqualsTheWholeFleetNode) {
  // node(id) finds a node in the slice that owns it: mid-run, every node at
  // every shard count is the whole-fleet node with that id, down to the bits
  // of its ground-truth degradation.
  const Time mid = Time::from_days(1.3);
  Network whole{city(48, 4, 1)};
  whole.run_until(mid);
  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE(shards);
    ShardedNetwork engine{city(48, 4, shards)};
    ASSERT_EQ(engine.plan().effective, shards);
    engine.run_until(mid);
    for (std::uint32_t id = 0; id < 48; ++id) {
      const Node& want = whole.nodes()[id];
      const Node& got = engine.node(id);
      EXPECT_EQ(got.id(), id);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.position().x_m),
                std::bit_cast<std::uint64_t>(want.position().x_m))
          << "node " << id;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.position().y_m),
                std::bit_cast<std::uint64_t>(want.position().y_m))
          << "node " << id;
      EXPECT_EQ(got.sf(), want.sf()) << "node " << id;
      EXPECT_EQ(got.period().us(), want.period().us()) << "node " << id;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.tracker().degradation(mid)),
                std::bit_cast<std::uint64_t>(want.tracker().degradation(mid)))
          << "node " << id;
    }
  }
}

TEST(ShardEngineNodeView, EditedPlanRunsLikeTheSliceConstructor) {
  // A caller-edited plan (one day of autonomy, as fault_recovery runs) gives
  // the same fleet rows at every shard count as one whole-fleet slice built
  // from that plan, and different rows from the unedited plan.
  const Time end = Time::from_days(2.0);
  ScenarioConfig c = city(48, 4, 1);
  DeploymentPlan plan = plan_deployment(c, Rng{c.seed, salt::kRootStream});
  for (NodePlan& node : plan.nodes) node.battery_capacity = node.battery_capacity / kBatteryDays;
  Network whole{c, plan, nullptr, nullptr, plan_shards(c, plan, 1).slice(0)};
  whole.run_until(end);
  whole.finalize_metrics();
  const std::string want = metric_rows(whole.metrics());

  ShardedNetwork unedited{c};
  unedited.run_until(end);
  unedited.finalize_metrics();
  EXPECT_NE(metric_rows(unedited.metrics()), want);

  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE(shards);
    c.shards = shards;
    ShardedNetwork engine{c, plan};
    ASSERT_EQ(engine.plan().effective, shards);
    engine.run_until(end);
    engine.finalize_metrics();
    EXPECT_EQ(metric_rows(engine.metrics()), want);
  }
}

TEST(ShardEngineNodeView, MismatchedPlanAndUnknownNodeAreRefused) {
  const ScenarioConfig c = city(48, 4, 4);
  const DeploymentPlan plan = plan_deployment(c, Rng{c.seed, salt::kRootStream});
  ScenarioConfig fewer_nodes = c;
  fewer_nodes.n_nodes = 47;
  EXPECT_THROW(ShardedNetwork(fewer_nodes, plan), std::invalid_argument);
  ScenarioConfig more_gateways = c;
  more_gateways.n_gateways = 9;
  try {
    ShardedNetwork refused{more_gateways, plan};
    ADD_FAILURE() << "a 4-gateway plan ran a 9-gateway config";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("4 gateways"), std::string::npos) << e.what();
    EXPECT_NE(std::string{e.what()}.find("48 and 9"), std::string::npos) << e.what();
  }
  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE(shards);
    ShardedNetwork engine{city(48, 4, shards)};
    ASSERT_EQ(engine.plan().effective, shards);
    EXPECT_EQ(engine.node(47).id(), 47u);
    EXPECT_THROW((void)engine.node(48), std::out_of_range);
    EXPECT_THROW((void)engine.node(0xffffffffU), std::out_of_range);
  }
}

TEST(ShardEngineNodeView, SliceNodesAreOneAlignedBlock) {
  // Each slice builds its nodes in one block: adjacent, in ascending global
  // id, every one starting a cache line (the event queue prefetches whole
  // lines from a node's address), and node(id) is that block element.
  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE(shards);
    ShardedNetwork engine{city(48, 4, shards)};
    ASSERT_EQ(engine.plan().effective, shards);
    std::size_t total = 0;
    for (int s = 0; s < shards; ++s) {
      const std::span<const Node> nodes = engine.slice(s).nodes();
      ASSERT_FALSE(nodes.empty()) << "slice " << s;
      total += nodes.size();
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const Node& node = nodes[i];
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&node) % 64, 0u) << "node " << node.id();
        EXPECT_EQ(&engine.node(node.id()), &node) << "node " << node.id();
        if (i + 1 < nodes.size()) {
          EXPECT_EQ(&node + 1, &nodes[i + 1]) << "node " << node.id();
          EXPECT_LT(node.id(), nodes[i + 1].id());
        }
      }
    }
    EXPECT_EQ(total, 48u);
  }
}

TEST(ShardEngineNodeView, ThrowMidSliceDestroysTheBuiltNodes) {
  // A node whose constructor throws part-way through a slice's build: the
  // engine's construction fails with the node's own error, and the nodes
  // already built (earlier slices whole, this slice's block up to the bad
  // node) are destroyed once each. ASan checks that the node that threw is
  // not destroyed: the slice's second node sits in the block's first 4 KB,
  // which ASan fills with garbage, so destroying it faults; the middle node
  // is the general case. (A freshly built node owns no heap yet, so a node
  // never destroyed leaks nothing here; ASan runs of any engine that ran
  // catch that.)
  for (const int shards : {1, 4}) {
    const ScenarioConfig c = city(48, 4, shards);
    const DeploymentPlan good = plan_deployment(c, Rng{c.seed, salt::kRootStream});
    const NetworkSlice last = plan_shards(c, good, shards).slice(shards - 1);
    ASSERT_GE(last.nodes.size(), 3u);
    for (const std::size_t bad : {std::size_t{1}, last.nodes.size() / 2}) {
      SCOPED_TRACE(testing::Message() << shards << " shards, slice node " << bad);
      DeploymentPlan plan = good;
      plan.nodes[last.nodes[bad]].battery_capacity = Energy{};
      try {
        ShardedNetwork refused{c, plan};
        ADD_FAILURE() << "a node with no battery capacity was built";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string{e.what()}.find("Battery: capacity must be positive"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(ShardEngineBarrier, ReduceMaxAcrossGenerations) {
  // tsan target: 4 threads, many reuse generations, every party must see
  // the same per-round maximum.
  constexpr int kParties = 4;
  constexpr int kRounds = 500;
  ShardBarrier barrier{kParties};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kParties);
  for (int t = 0; t < kParties; ++t) {
    threads.emplace_back([&barrier, &mismatches, t] {
      for (int round = 0; round < kRounds; ++round) {
        const double mine = static_cast<double>((t * 31 + round * 7) % 101);
        const double expected = [round] {
          double best = 0.0;
          for (int p = 0; p < kParties; ++p) {
            best = std::max(best, static_cast<double>((p * 31 + round * 7) % 101));
          }
          return best;
        }();
        if (barrier.reduce_max(mine) != expected) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ShardEngineBarrier, PoisonWakesWaitersAndPoisonsFutureCalls) {
  ShardBarrier barrier{2};
  std::atomic<bool> aborted{false};
  std::thread waiter{[&barrier, &aborted] {
    try {
      (void)barrier.reduce_max(1.0);  // blocks: the peer never arrives
    } catch (const ShardAborted&) {
      aborted.store(true);
    }
  }};
  barrier.poison();
  waiter.join();
  EXPECT_TRUE(aborted.load());
  EXPECT_THROW((void)barrier.reduce_max(0.0), ShardAborted);
  EXPECT_THROW(barrier.sync(), ShardAborted);
}

TEST(ShardEngineBarrier, FailedPartyUnwindsItsPeersThroughTheJoin) {
  // The engine's failure protocol: four parties on fork_join, each a
  // thread of its own as in ShardedNetwork::run_until. Party 2 throws
  // before its first sync and poisons the barrier, as run_slice does; the
  // three parties blocked in sync unwind with ShardAborted, the join
  // returns and rethrows party 2's error. A hang here fails the test by
  // its ctest timeout.
  constexpr int kParties = 4;
  ShardBarrier barrier{kParties};
  std::atomic<int> aborted{0};
  const auto party = [&](std::size_t p) {
    try {
      if (p == 2) throw std::runtime_error{"party 2 failed"};
      for (int epoch = 0; epoch < 3; ++epoch) barrier.sync();
    } catch (const ShardAborted&) {
      aborted.fetch_add(1);
    } catch (...) {
      barrier.poison();
      throw;
    }
  };
  try {
    fork_join(kParties, party);
    FAIL() << "the join must rethrow party 2's error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "party 2 failed");
  }
  EXPECT_EQ(aborted.load(), kParties - 1);
  EXPECT_THROW(barrier.sync(), ShardAborted);  // poisoned for good
}

}  // namespace
}  // namespace blam
