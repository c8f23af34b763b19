#include "sim/shard_engine.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <limits>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/env_number.hpp"
#include "sim/checkpoint.hpp"
#include "sim/sweep_runner.hpp"

namespace blam {

int resolve_shards(int configured) {
  const auto env = env_number<std::int64_t>("BLAM_SHARDS", 0, std::numeric_limits<int>::max());
  return env.has_value() ? static_cast<int>(*env) : configured;
}

namespace {

int uf_find(std::vector<int>& parent, int g) {
  while (parent[static_cast<std::size_t>(g)] != g) {
    parent[static_cast<std::size_t>(g)] =
        parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(g)])];
    g = parent[static_cast<std::size_t>(g)];
  }
  return g;
}

void uf_unite(std::vector<int>& parent, int a, int b) {
  a = uf_find(parent, a);
  b = uf_find(parent, b);
  // Deterministic representative: the lower gateway id wins.
  if (a == b) return;
  if (a < b) {
    parent[static_cast<std::size_t>(b)] = a;
  } else {
    parent[static_cast<std::size_t>(a)] = b;
  }
}

}  // namespace

ShardPlan plan_shards(const ScenarioConfig& config, const DeploymentPlan& deployment,
                      int requested) {
  const std::size_t n_gateways = deployment.gateway_positions.size();
  ShardPlan plan;
  plan.requested = requested;
  // One slice owns everything until the collision domains say otherwise.
  plan.shard_of_gateway.assign(n_gateways, 0);
  plan.shard_of_node.assign(deployment.nodes.size(), 0);
  if (requested <= 1) {
    plan.serial_reason = "shards <= 1 requested";
    return plan;
  }

  // Collision domains: union-find over gateways, folding every pair some
  // node reaches above the audibility floor. Those gateways share
  // interference state at TX-start time (zero lookahead), so they cannot be
  // split; gateways no node couples to both of remain independent.
  std::vector<int> parent(n_gateways);
  std::iota(parent.begin(), parent.end(), 0);
  std::vector<int> anchor_gateway(deployment.nodes.size(), 0);
  for (std::size_t i = 0; i < deployment.nodes.size(); ++i) {
    const std::span<const double> losses = deployment.losses_db(i);
    int first_coupled = -1;
    int best_gateway = 0;
    double best_loss = losses.empty() ? 0.0 : losses[0];
    for (std::size_t g = 0; g < losses.size(); ++g) {
      if (losses[g] < best_loss) {
        best_loss = losses[g];
        best_gateway = static_cast<int>(g);
      }
      const double rx_dbm = kDeviceTxPowerDbm - losses[g];
      if (rx_dbm >= config.interference_floor_dbm) {
        if (first_coupled < 0) {
          first_coupled = static_cast<int>(g);
        } else {
          uf_unite(parent, first_coupled, static_cast<int>(g));
        }
      }
    }
    // An everywhere-inaudible node still needs a home; its best gateway's
    // domain preserves serial results exactly (its uplinks are dropped under
    // the floor there just as they are everywhere).
    anchor_gateway[i] = first_coupled >= 0 ? first_coupled : best_gateway;
  }

  // Dense domain ids in ascending min-gateway-id order.
  std::vector<int> domain_of_root(n_gateways, -1);
  plan.domain_of_gateway.resize(n_gateways);
  int n_domains = 0;
  for (std::size_t g = 0; g < n_gateways; ++g) {
    const int root = uf_find(parent, static_cast<int>(g));
    if (domain_of_root[static_cast<std::size_t>(root)] < 0) {
      domain_of_root[static_cast<std::size_t>(root)] = n_domains++;
    }
    plan.domain_of_gateway[g] = domain_of_root[static_cast<std::size_t>(root)];
  }
  plan.domains = n_domains;
  if (n_domains <= 1) {
    plan.serial_reason = "single collision domain";
    return plan;
  }

  // Longest-processing-time packing of domains onto shards, by node count.
  plan.effective = std::min(requested, n_domains);
  std::vector<std::uint64_t> domain_nodes(static_cast<std::size_t>(n_domains), 0);
  for (std::size_t i = 0; i < deployment.nodes.size(); ++i) {
    const int d = plan.domain_of_gateway[static_cast<std::size_t>(anchor_gateway[i])];
    ++domain_nodes[static_cast<std::size_t>(d)];
  }
  std::vector<int> order(static_cast<std::size_t>(n_domains));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&domain_nodes](int a, int b) {
    const std::uint64_t na = domain_nodes[static_cast<std::size_t>(a)];
    const std::uint64_t nb = domain_nodes[static_cast<std::size_t>(b)];
    return na != nb ? na > nb : a < b;
  });
  std::vector<std::uint64_t> load(static_cast<std::size_t>(plan.effective), 0);
  std::vector<int> shard_of_domain(static_cast<std::size_t>(n_domains), 0);
  for (const int d : order) {
    std::size_t lightest = 0;
    for (std::size_t s = 1; s < load.size(); ++s) {
      if (load[s] < load[lightest]) lightest = s;
    }
    shard_of_domain[static_cast<std::size_t>(d)] = static_cast<int>(lightest);
    load[lightest] += domain_nodes[static_cast<std::size_t>(d)];
  }

  for (std::size_t g = 0; g < n_gateways; ++g) {
    plan.shard_of_gateway[g] =
        shard_of_domain[static_cast<std::size_t>(plan.domain_of_gateway[g])];
  }
  for (std::size_t i = 0; i < deployment.nodes.size(); ++i) {
    plan.shard_of_node[i] = shard_of_domain[static_cast<std::size_t>(
        plan.domain_of_gateway[static_cast<std::size_t>(anchor_gateway[i])])];
  }
  plan.serial = false;
  return plan;
}

NetworkSlice ShardPlan::slice(int shard) const {
  NetworkSlice out;
  out.gateways.reserve(
      static_cast<std::size_t>(std::ranges::count(shard_of_gateway, shard)));
  out.nodes.reserve(static_cast<std::size_t>(std::ranges::count(shard_of_node, shard)));
  for (std::size_t g = 0; g < shard_of_gateway.size(); ++g) {
    if (shard_of_gateway[g] == shard) out.gateways.push_back(static_cast<int>(g));
  }
  for (std::size_t i = 0; i < shard_of_node.size(); ++i) {
    if (shard_of_node[i] == shard) out.nodes.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

// --- ShardBarrier -----------------------------------------------------------

ShardBarrier::ShardBarrier(int parties) : parties_{parties} {}

double ShardBarrier::reduce_max(double value) {
  std::unique_lock<std::mutex> lock{mutex_};
  if (poisoned_) throw ShardAborted{};
  folding_max_ = arrived_ == 0 ? value : std::max(folding_max_, value);
  if (++arrived_ == parties_) {
    result_ = folding_max_;
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
    return result_;
  }
  const std::uint64_t my_generation = generation_;
  cv_.wait(lock, [this, my_generation] { return generation_ != my_generation || poisoned_; });
  if (poisoned_) throw ShardAborted{};
  // Safe to read under the lock: the next round cannot complete (and
  // overwrite result_) until every waiter of this round has re-arrived.
  return result_;
}

void ShardBarrier::sync() { (void)reduce_max(0.0); }

void ShardBarrier::poison() {
  const std::lock_guard<std::mutex> lock{mutex_};
  poisoned_ = true;
  cv_.notify_all();
}

// --- ShardedNetwork ---------------------------------------------------------

/// Forwards each slice-local D_max into the epoch barrier's max-reduction;
/// one instance serves every slice (stateless beyond the barrier pointer).
/// With one slice the reduction is the identity.
class ShardedNetwork::FleetReducer final : public FleetMaxCombiner {
 public:
  explicit FleetReducer(ShardBarrier& barrier) : barrier_{&barrier} {}
  [[nodiscard]] double combine_max_degradation(double local_max) override {
    return barrier_->reduce_max(local_max);
  }

 private:
  ShardBarrier* barrier_;
};

namespace {

/// Refuses retired variables and an invalid config before anything is planned.
DeploymentPlan plan_checked(const ScenarioConfig& config) {
  refuse_retired_env();
  config.validate();
  return plan_deployment(config, Rng{config.seed, salt::kRootStream});
}

std::int64_t resolve_checkpoint_every() {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  return env_number<std::int64_t>("BLAM_CHECKPOINT_EVERY", 0, kMax).value_or(0);
}

std::string resolve_checkpoint_dir() {
  if (const char* env = std::getenv("BLAM_CHECKPOINT_DIR")) {
    if (*env != '\0') return env;
  }
  return ".";
}

}  // namespace

ShardedNetwork::ShardedNetwork(const ScenarioConfig& config,
                               std::shared_ptr<const SolarTrace> trace)
    : ShardedNetwork{config, plan_checked(config), std::move(trace)} {}

ShardedNetwork::ShardedNetwork(const ScenarioConfig& config, const DeploymentPlan& deployment,
                               std::shared_ptr<const SolarTrace> trace)
    : config_{config}, fleet_{deployment.nodes.size()} {
  refuse_retired_env();
  config_.validate();
  const std::size_t nodes = deployment.nodes.size();
  const std::size_t gateways = deployment.gateway_positions.size();
  if (nodes != static_cast<std::size_t>(config_.n_nodes) ||
      gateways != static_cast<std::size_t>(config_.n_gateways)) {
    throw std::invalid_argument{
        "ShardedNetwork: the plan has " + std::to_string(nodes) + " nodes and " +
        std::to_string(gateways) + " gateways, the config asks for " +
        std::to_string(config_.n_nodes) + " and " + std::to_string(config_.n_gateways)};
  }
  checkpoint_every_ = resolve_checkpoint_every();
  checkpoint_dir_ = resolve_checkpoint_dir();
  plan_ = plan_shards(config_, deployment, resolve_shards(config_.shards));
  if (plan_.serial && plan_.requested > 1) {
    // The caller asked for parallelism it will not get; surface the silent
    // degradation once on stderr and in the fleet's metrics.
    std::fprintf(stderr, "blam: %d shards requested but running serial: %s\n", plan_.requested,
                 plan_.serial_reason.c_str());
    fleet_.set_serial_reason(plan_.serial_reason);
  }
  if (trace == nullptr) trace = build_deployment_trace(config_, deployment.worst_attempt_energy);

  const int n_slices = plan_.effective;
  barrier_ = std::make_unique<ShardBarrier>(n_slices);
  reducer_ = std::make_unique<FleetReducer>(*barrier_);
  busy_seconds_.assign(static_cast<std::size_t>(n_slices), 0.0);
  slices_.reserve(static_cast<std::size_t>(n_slices));
  for (int s = 0; s < n_slices; ++s) {
    NetworkSlice slice = plan_.slice(s);
    slice.fleet = &fleet_;
    slices_.push_back(std::make_unique<Network>(config_, deployment, trace, reducer_.get(), slice));
  }
}

ShardedNetwork::~ShardedNetwork() = default;

void ShardedNetwork::run_until(Time until) {
  refuse_after_failed_restore();
  if (until <= cursor_) return;
  // With checkpointing on, advance in slices that end exactly on checkpoint
  // boundaries (multiples of checkpoint_every_ dissemination epochs, in
  // absolute time), writing the rolling checkpoint file at each one. Slicing
  // is free for determinism: the epoch windows already derive from absolute
  // boundary instants, so any split of [cursor_, until) replays the
  // identical epoch sequence.
  const std::int64_t cp_us =
      checkpoint_every_ > 0 ? config_.dissemination_period.us() * checkpoint_every_ : 0;
  while (cursor_ < until) {
    Time next = until;
    if (cp_us > 0) {
      const std::int64_t next_boundary = (cursor_.us() / cp_us + 1) * cp_us;
      next = std::min(until, Time::from_us(next_boundary));
    }
    // Slice 0 runs on the calling thread, so a one-slice run starts nothing.
    fork_join(slices_.size(), [&](std::size_t s) { run_slice(s, cursor_, next); });
    cursor_ = next;
    if (cp_us > 0 && next.us() % cp_us == 0) checkpoint_to_file(checkpoint_file_path());
  }
}

namespace {

[[nodiscard]] double thread_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

}  // namespace

void ShardedNetwork::run_slice(std::size_t index, Time start, Time until) {
  Network& slice = *slices_[index];
  // Charges this thread's CPU time to the slice on every exit path.
  struct BusyTimer {
    double& total;
    double start{thread_cpu_seconds()};
    ~BusyTimer() { total += thread_cpu_seconds() - start; }
  } busy{busy_seconds_[index]};
  try {
    // Epoch boundaries at multiples of the dissemination period: the w_u
    // recompute (the only cross-slice event) fires exactly at boundary
    // instants, and its D_max all-reduce doubles as the alignment check.
    // Every slice derives the identical window sequence from (start, until),
    // so the collective-call sequences match one to one.
    const std::int64_t epoch_us = config_.dissemination_period.us();
    Time cursor = start;
    while (cursor < until) {
      const std::int64_t next_boundary = (cursor.us() / epoch_us + 1) * epoch_us;
      const Time next = std::min(until, Time::from_us(next_boundary));
      slice.run_until(next);
      barrier_->sync();
      cursor = next;
    }
  } catch (const ShardAborted&) {
    // A peer slice failed; its exception carries the diagnosis.
  } catch (...) {
    // Peers unwind at their next collective call, at most one epoch on.
    barrier_->poison();
    throw;
  }
}

double ShardedNetwork::max_degradation() const {
  double max_deg = 0.0;
  for (const auto& slice : slices_) max_deg = std::max(max_deg, slice->max_degradation());
  return max_deg;
}

void ShardedNetwork::finalize_metrics() {
  refuse_after_failed_restore();
  const std::uint64_t total_gateways = plan_.shard_of_gateway.size();
  GatewayMetrics& mg = fleet_.gateway();
  mg = GatewayMetrics{};
  LedgerCounters feedback;
  for (const auto& slice : slices_) {
    slice->finalize_metrics();

    // Every counter partitions across slices, report-channel fault tallies
    // included (nodes partition, and each has its own lane), but one: every
    // slice's server skips the identical backhaul-down dissemination
    // instants (the outage schedule is global), while a whole-fleet run
    // counts each skip once — so recomputes_skipped is replicated.
    const GatewayMetrics& g = slice->metrics().gateway();
    for (const auto count : g.fields()) mg.*count += g.*count;
    mg.recomputes_skipped = g.recomputes_skipped;

    // Exact compensation for the gateways this slice never radiated to: in
    // a whole-fleet run every attempt arrives at every gateway, and at a
    // foreign slice's gateway it would sit under the audibility floor by
    // construction — one arrival plus one lost_under_sensitivity, nothing
    // else. No other counter can differ.
    const std::uint64_t missing = total_gateways - slice->gateways().size();
    std::uint64_t attempts = 0;
    for (const Node& node : slice->nodes()) attempts += fleet_.node(node.id()).tx_attempts;
    mg.arrivals += attempts * missing;
    mg.lost_under_sensitivity += attempts * missing;

    const LedgerCounters& c = slice->server().service().counters();
    for (const auto count : c.fields()) feedback.*count += c.*count;
  }
  fleet_.set_feedback(feedback);
  const Network& front = *slices_.front();
  if (const FaultPlan* faults = front.fault_plan()) {
    // The outage schedule is global and every slice regenerates it
    // identically; any slice's tally is the whole-fleet value.
    fleet_.set_total_outage(faults->outage_seconds_until(front.simulator().now()).seconds());
  }
}

const Metrics& ShardedNetwork::metrics() const { return fleet_; }

Metrics ShardedNetwork::release_metrics() && { return std::move(fleet_); }

std::optional<AuditReport> ShardedNetwork::audit_report() const {
  std::vector<const Auditor*> audits;
  for (const auto& slice : slices_) {
    if (slice->auditor() != nullptr) audits.push_back(slice->auditor());
  }
  if (audits.empty()) return std::nullopt;
  return merge_audits(audits);
}

std::uint64_t ShardedNetwork::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& slice : slices_) total += slice->simulator().events_executed();
  return total;
}

const Node& ShardedNetwork::node(std::uint32_t id) const {
  return slices_[static_cast<std::size_t>(plan_.shard_of_node.at(id))]->node(id);
}

double ShardedNetwork::w_for(std::uint32_t node_id) const {
  const auto s = static_cast<std::size_t>(plan_.shard_of_node.at(node_id));
  return slices_[s]->server().w_for(node_id);
}

double ShardedNetwork::max_shard_busy_seconds() const {
  return std::ranges::max(busy_seconds_);
}

namespace {

/// Every byte left in `in`. A stream that can seek (a file, a string
/// stream) is read into one buffer allocated at its final size.
std::string read_all(std::istream& in) {
  const std::istream::pos_type start = in.tellg();
  if (start != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.seekg(start);
    if (in && end >= start) {
      std::string bytes(static_cast<std::size_t>(end - start), '\0');
      in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      bytes.resize(static_cast<std::size_t>(in.gcount()));
      return bytes;
    }
  }
  in.clear();
  std::ostringstream rest;
  rest << in.rdbuf();
  return std::move(rest).str();
}

}  // namespace

void ShardedNetwork::refuse_after_failed_restore() const {
  if (!failed_restore_.empty()) {
    throw std::logic_error{"ShardedNetwork: a failed restore() left this engine part-restored (" +
                           failed_restore_ + "); build a fresh engine"};
  }
}

void ShardedNetwork::checkpoint(std::ostream& out) {
  refuse_after_failed_restore();
  // Every slice serializes concurrently into its own buffer, each through
  // its own StateWriter (the writer hands the buffer whole sections, so the
  // bytes do not depend on how the stream is split). The buffers' lengths
  // become the meta section's offset table.
  std::vector<std::ostringstream> buffers(slices_.size());
  fork_join(slices_.size(), [&](std::size_t s) {
    StateWriter slice_writer{buffers[s]};
    slices_[s]->checkpoint_state(slice_writer);
  });

  out << kCheckpointMagic << '\n';
  StateWriter w{out};
  // The meta section pins everything restore() cannot rebuild on its own:
  // the scenario identity (seed, fleet size), the engine shape (slice
  // boundaries differ between shard counts, so a stream only restores into
  // the same shape), the resume cursor, and where each slice's bytes end.
  w.begin_section("meta");
  w.put_u64(config_.seed);
  w.put_u64(static_cast<std::uint64_t>(config_.n_nodes));
  w.put_u64(plan_.serial ? 1 : 0);
  w.put_u64(static_cast<std::uint64_t>(plan_.effective));
  write_time(w, cursor_);
  for (const std::ostringstream& buffer : buffers) w.put_u64(buffer.view().size());
  w.end_section();
  for (std::ostringstream& buffer : buffers) {
    // Moved out and freed after the write, before the next append grows `out`.
    const std::string bytes = std::move(buffer).str();
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

void ShardedNetwork::restore(std::istream& in) {
  refuse_after_failed_restore();
  const std::string bytes = read_all(in);
  try {
    restore_bytes(bytes);
  } catch (const std::exception& e) {
    failed_restore_ = std::string{"\""} + e.what() + "\"";
    throw;
  }
}

void ShardedNetwork::restore_bytes(std::string_view bytes) {
  const std::string_view magic = bytes.substr(0, bytes.find('\n'));
  if (magic.size() == bytes.size() || magic != kCheckpointMagic) {
    throw std::runtime_error{
        "restore: not a \"" + std::string{kCheckpointMagic} + "\" checkpoint stream" +
        (magic.starts_with("blamsim ") && magic.size() < bytes.size()
             ? " (\"" + std::string{magic} + "\" is not supported by this build)"
             : "")};
  }
  StateReader r{bytes.substr(magic.size() + 1)};
  r.begin_section("meta");
  if (r.get_u64() != config_.seed) {
    throw std::runtime_error{"restore: checkpoint seed does not match this scenario"};
  }
  if (r.get_u64() != static_cast<std::uint64_t>(config_.n_nodes)) {
    throw std::runtime_error{"restore: checkpoint fleet size does not match this scenario"};
  }
  if ((r.get_u64() != 0) != plan_.serial ||
      r.get_u64() != static_cast<std::uint64_t>(plan_.effective)) {
    throw std::runtime_error{
        "restore: checkpoint engine shape (serial/shard count) does not match this run"};
  }
  const Time cursor = read_time(r);
  std::vector<std::uint64_t> lengths(slices_.size());
  for (std::uint64_t& length : lengths) length = r.get_u64();
  r.end_section();

  // The offset table must tile the rest of the stream exactly, every slice
  // non-empty (each starts with its clock section).
  const std::string_view body = r.remaining();
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] == 0) {
      throw std::runtime_error{"restore: checkpoint offset table gives slice " +
                               std::to_string(s) + " no bytes"};
    }
    if (__builtin_add_overflow(total, lengths[s], &total) || total > body.size()) {
      throw std::runtime_error{"restore: checkpoint offset table runs past the end of the stream"};
    }
  }
  if (total != body.size()) {
    throw std::runtime_error{"restore: checkpoint offset table covers " + std::to_string(total) +
                             " of the " + std::to_string(body.size()) + " slice bytes"};
  }

  std::vector<std::string_view> ranges;
  ranges.reserve(lengths.size());
  for (std::size_t s = 0, at = 0; s < lengths.size(); at += lengths[s], ++s) {
    ranges.push_back(body.substr(at, lengths[s]));
  }
  fork_join(slices_.size(), [&](std::size_t s) {
    StateReader slice_reader{ranges[s]};
    slices_[s]->restore_state(slice_reader);
    if (!slice_reader.at_end()) {
      throw std::runtime_error{"restore: trailing bytes after slice " + std::to_string(s)};
    }
  });
  cursor_ = cursor;
}

std::string ShardedNetwork::checkpoint_file_path() const {
  return checkpoint_dir_ + "/blamsim.ckpt";
}

void ShardedNetwork::checkpoint_to_file(const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) throw std::runtime_error{"checkpoint: cannot open " + tmp};
    checkpoint(out);
    out.flush();
    if (!out) throw std::runtime_error{"checkpoint: write failed for " + tmp};
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error{"checkpoint: rename to " + path + " failed"};
  }
}

}  // namespace blam
