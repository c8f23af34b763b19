#include "net/network.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/sorted_ids.hpp"
#include "net/deployment_plan.hpp"
#include "sim/checkpoint.hpp"

namespace blam {

namespace {

DeploymentPlan plan_validated(const ScenarioConfig& config) {
  config.validate();
  return plan_deployment(config, Rng{config.seed, salt::kRootStream});
}

/// Every gateway and node of `deployment`.
NetworkSlice whole_fleet(const DeploymentPlan& deployment) {
  NetworkSlice slice;
  slice.gateways.resize(deployment.gateway_positions.size());
  std::iota(slice.gateways.begin(), slice.gateways.end(), 0);
  slice.nodes.resize(deployment.nodes.size());
  std::iota(slice.nodes.begin(), slice.nodes.end(), 0U);
  return slice;
}

void write_faults(StateWriter& w, const FaultPlan& faults) {
  // Only the downlink Gilbert-Elliott chains carry draw-consuming state;
  // the outage/drought schedules regenerate deterministically from
  // (config, seed) and are deliberately NOT captured.
  const auto states = faults.channel_states();
  w.begin_section("faults");
  w.put_u64(states.size());
  for (const auto& [gateway_id, state] : states) {
    w.put_i64(gateway_id);
    write_rng(w, state.rng);
    w.put_u64(state.bad ? 1 : 0);
    write_time(w, state.state_until);
  }
  w.end_section();
}

void read_faults(StateReader& r, FaultPlan& faults) {
  r.begin_section("faults");
  std::vector<std::pair<int, GilbertElliott::State>> states;
  for (std::uint64_t i = 0, n = r.get_u64(); i < n; ++i) {
    auto& [gateway_id, state] = states.emplace_back();
    gateway_id = static_cast<int>(r.get_i64());
    state.rng = read_rng(r);
    state.bad = r.get_u64() != 0;
    state.state_until = read_time(r);
  }
  r.end_section();
  faults.restore_channel_states(states);
}

}  // namespace

Network::Network(const ScenarioConfig& config) : Network{config, plan_validated(config)} {}

Network::Network(const ScenarioConfig& config, const DeploymentPlan& deployment)
    : Network{config, deployment, nullptr, nullptr, whole_fleet(deployment)} {}

Network::Network(const ScenarioConfig& config, const DeploymentPlan& deployment,
                 std::shared_ptr<const SolarTrace> trace, FleetMaxCombiner* combiner,
                 const NetworkSlice& slice)
    : config_{config},
      plan_{config.uplink_channels, config.downlink_channels},
      model_{config.degradation},
      metrics_{slice.fleet != nullptr ? 0 : deployment.nodes.size()},
      nodes_{slice.nodes.size()},
      worst_attempt_energy_{deployment.worst_attempt_energy} {
  config_.validate();
  const Rng root{config_.seed, salt::kRootStream};
  trace_ = trace != nullptr ? std::move(trace)
                            : build_deployment_trace(config_, worst_attempt_energy_);

  thermal_ = std::make_unique<TemperatureModel>(config_.thermal.model());

  utility_ = make_utility(config_);
  server_ = std::make_unique<NetworkServer>(sim_, model_, config_.dissemination_period);
  server_->attach_metrics(metrics_);

  // Ingestion-queue watermark: scenario knob, overridable from the
  // environment (the determinism CI leg regenerates figures at batch 1 and
  // 4096 and diffs the outputs — any batch size is bit-identical).
  server_->service().set_ingest_batch(resolve_ingest_batch(config_));
  server_->service().set_fleet_combiner(combiner);

  // The auditor is observe-only (no RNG, no state mutation), so results are
  // bit-identical with it on or off; it attaches before anything schedules
  // events so the first pops are covered too. Its ledger covers this
  // slice's nodes only.
  if (const AuditConfig audit = audit_config_from_env(); audit.enabled) {
    audit_ = std::make_unique<Auditor>(slice.nodes, audit.throw_on_violation);
    sim_.attach_auditor(audit_.get());
    server_->attach_auditor(audit_.get());
  }

  if (config_.adr_enabled) server_->enable_adr(slice.nodes);
  if (config_.adaptive_theta) {
    ThetaController::Config tc;
    tc.initial = std::clamp(config_.theta, tc.theta_min, tc.theta_max);
    server_->enable_adaptive_theta(tc);
  }

  // The FaultPlan and all its child streams come from a dedicated fork of
  // the scenario root, so configuring faults never perturbs the topology /
  // shadowing / traffic draws above — and a fault-free scenario builds no
  // plan at all, keeping it bit-identical to pre-fault builds. Every slice
  // builds the full plan: outage/drought schedules are global, and the
  // Gilbert-Elliott / crash / report streams are keyed by global gateway
  // and node ids, so a slice regenerates exactly its entities' draws.
  if (config_.faults.any()) {
    faults_ = std::make_unique<FaultPlan>(config_.faults, root.fork(salt::kFaultPlan));
    server_->attach_fault_plan(faults_.get());
  }

  Gateway::Config gw;
  gw.interference_floor_dbm = config_.interference_floor_dbm;
  for (const int g : slice.gateways) {
    const auto global = static_cast<std::size_t>(g);
    gateways_.push_back(std::make_unique<Gateway>(static_cast<int>(gateways_.size()),
                                                  deployment.gateway_positions[global], sim_,
                                                  *server_, metrics_, plan_, gw));
    if (faults_ != nullptr) {
      // The Gilbert-Elliott downlink chain is keyed by the GLOBAL id. A
      // fault-free gateway keeps its local id, which its checkpoint records.
      gateways_.back()->set_fault_gateway_id(g);
      gateways_.back()->attach_fault_plan(faults_.get());
    }
  }

  policy_ = make_policy(config_);
  node_shared_.config = &config_;
  node_shared_.sim = &sim_;
  node_shared_.gateways = &gateways_;
  node_shared_.plan = &plan_;
  node_shared_.thermal = thermal_.get();
  node_shared_.utility = utility_.get();
  node_shared_.policy = policy_.get();
  node_shared_.gateway_metrics = &metrics_.gateway();

  // Each node's reach: the slice gateways its uplinks clear the audibility
  // floor at when sent at kDeviceTxPowerDbm, the most power it ever uses
  // (ADR only steps down from it and back), by the same test
  // Gateway::on_uplink makes; laid out node after node in one array,
  // counted first so it is allocated once.
  const auto audible = [this](double loss) {
    return !(kDeviceTxPowerDbm - loss < config_.interference_floor_dbm);
  };
  std::size_t links = 0;
  for (const std::uint32_t id : slice.nodes) {
    const std::span<const double> losses = deployment.losses_db(id);
    for (const int g : slice.gateways) {
      if (audible(losses[static_cast<std::size_t>(g)])) ++links;
    }
  }
  node_links_.reserve(links);
  std::vector<std::size_t> first_link(slice.nodes.size() + 1, 0);
  for (std::size_t i = 0; i < slice.nodes.size(); ++i) {
    const std::span<const double> losses = deployment.losses_db(slice.nodes[i]);
    for (std::size_t local = 0; local < slice.gateways.size(); ++local) {
      const double loss = losses[static_cast<std::size_t>(slice.gateways[local])];
      if (audible(loss)) node_links_.push_back(Node::Link{static_cast<int>(local), loss});
    }
    first_link[i + 1] = node_links_.size();
  }

  // The other per-node columns are sized once, here, from the slice: the
  // ledger's rows and report-fault lanes, then the event queue's slots. The
  // build schedules each node's first period (and first crash, with crashes
  // on) and the server's first tick; the pool takes them at the power of two
  // its own doubling would have reached, so the run regrows it as before.
  server_->register_nodes(slice.nodes);
  const bool crashes = faults_ != nullptr && config_.faults.crashes_enabled();
  sim_.reserve_events(std::bit_ceil(slice.nodes.size() * (crashes ? 2 : 1) + 1));

  // Construction order — server first (its dissemination tick is the
  // earliest scheduled event), then gateways, then nodes in ascending global
  // id — makes a slice's event order the whole-fleet order's projection onto
  // its collision domains, which is what keeps shard counts bit-identical.
  Metrics& fleet = slice.fleet != nullptr ? *slice.fleet : metrics_;
  for (std::size_t i = 0; i < slice.nodes.size(); ++i) {
    const std::uint32_t id = slice.nodes[i];
    const NodePlan& p = deployment.nodes[id];
    const std::span<const double> losses = deployment.losses_db(id);

    Node::Init init;
    init.id = id;
    init.position = p.position;
    init.period = p.period;
    init.sf = p.sf;
    init.audible = std::span<const Node::Link>{node_links_}.subspan(
        first_link[i], first_link[i + 1] - first_link[i]);
    init.inaudible_gateways =
        static_cast<std::uint32_t>(slice.gateways.size() - init.audible.size());
    init.min_link_loss_db = std::numeric_limits<double>::infinity();
    for (const int g : slice.gateways) {
      init.min_link_loss_db = std::min(init.min_link_loss_db, losses[static_cast<std::size_t>(g)]);
    }
    init.battery_capacity = p.battery_capacity;
    init.panel_scale = p.panel_scale;

    Node& node = nodes_.emplace_back(init, node_shared_, *trace_, model_, fleet.node(id),
                                     root.fork(salt::kNodeStreamBase + id));
    node.attach_auditor(audit_.get());
    if (faults_ != nullptr) node.attach_fault_plan(faults_.get());
    node.start();
  }

  // Feedback-consistency audit needs the nodes' ground-truth trackers. The
  // server probes only the nodes registered above, by global id. The ledger
  // ages every battery at kInsulatedBatteryC, so an outdoor battery's truth
  // legitimately differs from it and the check stays off there.
  if (audit_ != nullptr && config_.thermal.insulated) {
    server_->set_truth_probe(
        [this](std::uint32_t id, Time at) { return node_by_id(id).degradation_now(at); });
  }
}

namespace {

/// A transparent huge page: 2 MB on x86-64 and on arm64 with 4 KB pages.
constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

std::align_val_t node_block_alignment(std::size_t huge_bytes) {
  return std::align_val_t{huge_bytes > 0 ? kHugePageBytes : alignof(Node)};
}

}  // namespace

NodeBlock::NodeBlock(std::size_t capacity)
    : huge_bytes_{capacity * sizeof(Node) / kHugePageBytes * kHugePageBytes},
      nodes_{static_cast<Node*>(
          ::operator new(capacity * sizeof(Node), node_block_alignment(huge_bytes_)))} {
  // Only the block's own pages, which the node loop constructs in full: the
  // tail past the last whole huge page keeps small pages, so no huge page
  // maps memory the block does not use. A failed madvise leaves small pages.
  if (huge_bytes_ > 0) (void)madvise(nodes_, huge_bytes_, MADV_HUGEPAGE);
}

NodeBlock::~NodeBlock() {
  while (size_ > 0) std::destroy_at(nodes_ + --size_);
  // Withdrawn so memory the allocator reuses (an arena's, rather than a
  // mapping it unmaps) does not keep the advice. Under THP mode "madvise",
  // MADV_NOHUGEPAGE is the state the memory had before; under "always" it
  // leaves that memory on small pages.
  if (huge_bytes_ > 0) (void)madvise(nodes_, huge_bytes_, MADV_NOHUGEPAGE);
  ::operator delete(nodes_, node_block_alignment(huge_bytes_));
}

Node& Network::node_by_id(std::uint32_t id) const {
  // The block is in ascending global id (the slice's build order).
  Node* const it =
      lower_bound_id(nodes_.begin(), nodes_.end(), id, [](const Node& n) { return n.id(); });
  if (it == nodes_.end() || it->id() != id) {
    throw std::runtime_error{"Network: node " + std::to_string(id) + " is outside this slice"};
  }
  return *it;
}

void Network::run_until(Time until) { sim_.run_until(until); }

double Network::max_degradation() const {
  double max_deg = 0.0;
  for (const Node& node : nodes_) {
    max_deg = std::max(max_deg, node.degradation_now(sim_.now()));
  }
  return max_deg;
}

void Network::finalize_metrics() {
  for (Node& node : nodes_) node.finalize_metrics(sim_.now());
  if (faults_ != nullptr) {
    metrics_.set_total_outage(faults_->outage_seconds_until(sim_.now()).seconds());
  }
  // Release any report the fault channel still holds, then snapshot the
  // ledger's ingest decisions and the channel's fault tally.
  server_->flush_report_channel();
  metrics_.set_feedback(server_->service().counters());
  if (const ReportChannelCounters* rc = server_->report_channel_counters()) {
    GatewayMetrics& gw = metrics_.gateway();
    gw.reports_dropped_fault = rc->dropped;
    gw.reports_duplicated_fault = rc->duplicated;
    gw.reports_reordered_fault = rc->reordered;
    gw.reports_corrupted_fault = rc->corrupted;
    gw.reports_truncated_fault = rc->truncated;
  }
}

void Network::checkpoint_state(StateWriter& w) {
  w.begin_section("clock");
  write_time(w, sim_.now());
  w.put_u64(sim_.events_executed());
  w.put_u64(sim_.next_event_seq());
  w.end_section();

  w.begin_section("topology");
  w.put_u64(gateways_.size());
  w.put_u64(nodes_.size());
  w.put_u64(faults_ != nullptr ? 1 : 0);
  w.end_section();

  server_->checkpoint_state(w);
  for (const auto& gateway : gateways_) gateway->checkpoint_state(w);
  w.begin_section("gateway-metrics");
  write_gateway_metrics(w, metrics_.gateway());
  w.end_section();
  for (const Node& node : nodes_) node.checkpoint_state(w);
  if (faults_ != nullptr) write_faults(w, *faults_);
  // Last, so an unaudited stream is unchanged by the audit subsystem.
  if (audit_ != nullptr) audit_->checkpoint_state(w);
}

void Network::restore_state(StateReader& r) {
  // Wipe the construction-time schedule first: every component then replays
  // its own pending events under their original seqs.
  sim_.clear_events();

  r.begin_section("clock");
  const Time now = read_time(r);
  const std::uint64_t executed = r.get_u64();
  const std::uint64_t next_seq = r.get_u64();
  r.end_section();

  r.begin_section("topology");
  if (r.get_u64() != gateways_.size() || r.get_u64() != nodes_.size() ||
      (r.get_u64() != 0) != (faults_ != nullptr)) {
    throw std::runtime_error{"restore: checkpoint topology does not match this slice"};
  }
  r.end_section();

  const auto restored_node = [this](std::uint32_t id) { return &node_by_id(id); };
  server_->restore_state(r, gateways_, restored_node);
  for (const auto& gateway : gateways_) gateway->restore_state(r, restored_node);
  r.begin_section("gateway-metrics");
  read_gateway_metrics(r, metrics_.gateway());
  r.end_section();
  for (Node& node : nodes_) node.restore_state(r);
  if (faults_ != nullptr) read_faults(r, *faults_);
  if (r.remaining().starts_with("section audit\n") != (audit_ != nullptr)) {
    throw std::runtime_error{"restore: checkpoint and this run differ in auditing (BLAM_AUDIT)"};
  }
  if (audit_ != nullptr) audit_->restore_state(r);

  // Last: the clock. Every schedule_at_seq above validated against now()==0;
  // from here the engine is positioned exactly at the checkpoint instant.
  sim_.restore_clock(now, executed, next_seq);
}

}  // namespace blam
