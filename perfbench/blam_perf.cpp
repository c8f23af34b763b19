// blam_perf: the workload runner behind perfbench/run.py.
//
//   blam_perf --mode setup --workload W --seed N
//       builds the workload's engine once (the first build in a fresh
//       process) and prints {"setup_s": ...}.
//   blam_perf --mode run --workload W --seed N --seconds S --trace 0|1
//             [--spans PATH] [--small]
//       simulates the workload from scratch, again and again, until S
//       seconds have passed; then runs the reference configuration once and
//       prints one JSON object with the raw measurements. With --trace 1 it
//       also records spans around every call into the simulator's layers
//       (kept in memory, written to PATH at exit), alternates traced and
//       untraced iterations so the tracing overhead can be read off, and
//       times the layer functions on inputs shaped like the workload.
//
// --small shrinks every workload for the benchmark's own tests.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/degradation_service.hpp"
#include "core/window_selector.hpp"
#include "net/deployment_plan.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/shard_engine.hpp"

namespace {

using namespace blam;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds of the whole process, every thread included (also threads
/// that have already been joined).
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// --- spans -------------------------------------------------------------------

/// In-memory span recorder: name, start, end and parent of every layer call
/// the benchmark makes. Nothing is written until write() at exit, so tracing
/// costs two clock reads and one vector push per span.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
  };

  int open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now(), -1.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  /// One JSON object per line: {"id", "name", "start", "end", "parent"}.
  void write(const std::string& path) const {
    std::ofstream out{path, std::ios::trunc};
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                    "\"parent\": %d}\n",
                    i, s.name, s.start, s.end, s.parent);
      out << line;
    }
    out.flush();
    if (!out) throw std::runtime_error{"cannot write spans to " + path};
  }

 private:
  [[nodiscard]] double now() const { return seconds_between(origin_, Clock::now()); }

  Clock::time_point origin_{Clock::now()};
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Records one span when a tracer is given; does nothing otherwise.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_{tracer}, id_{tracer != nullptr ? tracer->open(name) : -1} {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// --- workloads ---------------------------------------------------------------

struct Workload {
  ScenarioConfig config;
  int days{1};
  /// Wall seconds of one iteration on a 4-core KVM guest (g++ 12,
  /// Release); a run makes round(--seconds / iteration_s) iterations.
  double iteration_s{10.0};
  /// Checkpoint the engine into memory at every epoch barrier.
  bool checkpoint_each_epoch{false};
  /// After this epoch, discard the engine, build a fresh one and restore the
  /// last checkpoint into it (0 = never).
  int resume_after_epoch{0};
  /// An equivalent configuration that the repository's bit-identity
  /// contract says must give the same fleet digest, run uninterrupted.
  ScenarioConfig reference;
};

/// The 12 km city grid: 16 gateways, nodes within 1 km of their cell's
/// gateway, a -143 dBm audibility floor. Every cell is its own collision
/// domain, so the shard planner can split it exactly.
ScenarioConfig city_config(int nodes, std::uint64_t seed) {
  ScenarioConfig c = blam_scenario(nodes, /*theta=*/0.5, seed);
  c.n_gateways = 16;
  c.gateway_grid_pitch_m = 12000.0;
  c.cluster_radius_m = 1000.0;
  c.interference_floor_dbm = -143.0;
  c.sf_assignment = SfAssignment::kDistanceBased;
  return c;
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool small) {
  Workload w;
  if (name == "paper_year") {
    // The paper's setup: one central gateway on the 5 km disk, H-50.
    w.config = blam_scenario(small ? 20 : 200, /*theta=*/0.5, seed);
    w.config.sf_assignment = SfAssignment::kDistanceBased;
    w.config.path_loss.shadowing_sigma_db = 6.0;
    w.config.shards = 1;
    w.days = small ? 20 : 365;
    // The ingest queue's batch size never changes results.
    w.reference = w.config;
    w.reference.ingest_batch = 4096;
  } else if (name == "city_serial") {
    w.config = city_config(small ? 800 : 20000, seed);
    w.config.shards = 1;
    w.days = 1;
    w.iteration_s = 9.0;
    // Any shard count gives the serial engine's results.
    w.reference = w.config;
    w.reference.shards = 4;
  } else if (name == "city_resume") {
    w.config = city_config(small ? 800 : 12000, seed);
    w.config.shards = 4;
    w.config.faults.report_loss = 0.1;
    w.config.faults.report_reorder = 0.1;
    w.config.faults.report_corrupt = 0.05;
    w.days = small ? 4 : 6;
    w.iteration_s = 11.0;
    w.checkpoint_each_epoch = true;
    w.resume_after_epoch = small ? 2 : 3;
    // A resumed run must equal the uninterrupted run.
    w.reference = w.config;
  } else {
    throw std::invalid_argument{"unknown workload '" + name +
                                "' (paper_year, city_serial, city_resume)"};
  }
  return w;
}

// --- engine ------------------------------------------------------------------

/// The engine under test. Untraced runs always use ShardedNetwork. A traced
/// run of a serial workload drives the serial Network directly — the engine
/// ShardedNetwork delegates to — because only it exposes the event-queue
/// depth.
class Engine {
 public:
  Engine(const ScenarioConfig& config, bool direct_serial) {
    if (direct_serial) {
      serial_ = std::make_unique<Network>(config);
    } else {
      sharded_ = std::make_unique<ShardedNetwork>(config);
    }
  }

  void run_until(Time until) {
    if (serial_) {
      serial_->run_until(until);
    } else {
      sharded_->run_until(until);
    }
  }
  void finalize_metrics() {
    if (serial_) {
      serial_->finalize_metrics();
    } else {
      sharded_->finalize_metrics();
    }
  }
  [[nodiscard]] const Metrics& metrics() const {
    return serial_ ? serial_->metrics() : sharded_->metrics();
  }
  [[nodiscard]] double w_for(std::uint32_t node) const {
    return serial_ ? serial_->server().w_for(node) : sharded_->w_for(node);
  }
  [[nodiscard]] std::uint64_t events_executed() const {
    return serial_ ? serial_->simulator().events_executed() : sharded_->events_executed();
  }
  [[nodiscard]] std::optional<std::size_t> pending_events() const {
    if (serial_) return serial_->simulator().pending_events();
    return std::nullopt;
  }
  [[nodiscard]] double max_shard_busy_seconds() const {
    return sharded_ ? sharded_->max_shard_busy_seconds() : 0.0;
  }
  [[nodiscard]] int effective_shards() const { return sharded_ ? sharded_->plan().effective : 1; }
  [[nodiscard]] ShardedNetwork& sharded() {
    if (!sharded_) throw std::logic_error{"checkpointing needs the sharded engine"};
    return *sharded_;
  }

 private:
  std::unique_ptr<Network> serial_;
  std::unique_ptr<ShardedNetwork> sharded_;
};

// --- output check ------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (byte * 8)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  static_assert(sizeof out == sizeof v);
  std::memcpy(&out, &v, sizeof out);
  return out;
}

/// Fleet digest: per-node counters, the bit patterns of energy, utility,
/// degradation and final SoC, the disseminated w_u, and the (compensated)
/// gateway counters. events_executed is left out: sharded runs execute
/// extra per-shard dissemination ticks.
std::uint64_t fleet_digest(const Engine& engine) {
  std::uint64_t h = 1469598103934665603ULL;
  const Metrics& m = engine.metrics();
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    const NodeMetrics& n = m.node(i);
    for (const std::uint64_t v : {n.generated, n.delivered, n.exhausted, n.policy_drops,
                                  n.brownouts, n.duty_defers, n.tx_attempts, n.retx, n.crashes,
                                  n.reboot_drops, n.lost_in_outage}) {
      h = fnv1a(h, v);
    }
    h = fnv1a(h, bits(n.tx_energy.joules()));
    h = fnv1a(h, bits(n.utility_sum));
    h = fnv1a(h, bits(n.degradation));
    h = fnv1a(h, bits(n.final_soc));
    h = fnv1a(h, bits(engine.w_for(static_cast<std::uint32_t>(i))));
  }
  const GatewayMetrics& g = m.gateway();
  for (const std::uint64_t v :
       {g.arrivals, g.received, g.lost_interference, g.lost_half_duplex, g.lost_no_demod_path,
        g.lost_under_sensitivity, g.acks_sent, g.acks_rx2, g.acks_unschedulable,
        g.acks_undecodable, g.duplicates, g.lost_outage, g.acks_lost_outage,
        g.acks_lost_channel, g.reports_dropped_fault, g.reports_duplicated_fault,
        g.reports_reordered_fault, g.reports_corrupted_fault, g.reports_truncated_fault}) {
    h = fnv1a(h, v);
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- one iteration -------------------------------------------------------------

/// Exact counts of one finished run (identical for every run at one seed).
struct Counters {
  std::uint64_t events{0};
  std::uint64_t generated{0};
  std::uint64_t delivered{0};
  std::uint64_t tx_attempts{0};
  std::uint64_t selections{0};
  std::uint64_t arrivals{0};
  std::uint64_t received{0};
  std::uint64_t lost_interference{0};
  std::uint64_t lost_under_sensitivity{0};
  std::uint64_t reports_dropped{0};
  std::uint64_t reports_reordered{0};
  std::uint64_t reports_corrupted{0};
  LedgerCounters ledger{};
};

Counters count(const Engine& engine) {
  Counters c;
  const Metrics& m = engine.metrics();
  c.events = engine.events_executed();
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    const NodeMetrics& n = m.node(i);
    c.generated += n.generated;
    c.delivered += n.delivered;
    c.tx_attempts += n.tx_attempts;
    // Every Algorithm 1 run either picks a window or drops the packet.
    c.selections += n.policy_drops;
    for (const std::uint32_t k : n.window_counts) c.selections += k;
  }
  const GatewayMetrics& g = m.gateway();
  c.arrivals = g.arrivals;
  c.received = g.received;
  c.lost_interference = g.lost_interference;
  c.lost_under_sensitivity = g.lost_under_sensitivity;
  c.reports_dropped = g.reports_dropped_fault;
  c.reports_reordered = g.reports_reordered_fault;
  c.reports_corrupted = g.reports_corrupted_fault;
  c.ledger = m.summarize().feedback;
  return c;
}

struct Iteration {
  bool traced{false};
  double wall_s{0.0};
  double cpu_s{0.0};
  /// Process CPU spent inside run_until (the epochs), all threads.
  double epoch_cpu_s{0.0};
  /// max_shard_busy_seconds summed over the engines the run used.
  double busy_max_s{0.0};
  int effective_shards{1};
  std::uint64_t digest{0};
  std::uint64_t checkpoint_bytes{0};
  int checkpoints{0};
  std::vector<std::size_t> pending;
  Counters counters;
};

/// Builds the engine (untimed), then times the simulated days, the
/// checkpoints and the resume, and finalize_metrics. With `resume` false
/// the configuration runs uninterrupted (the reference pass).
Iteration run_iteration(const Workload& w, const ScenarioConfig& config, bool resume,
                        Tracer* tracer, bool direct_serial) {
  Iteration it;
  it.traced = tracer != nullptr;
  auto engine = std::make_unique<Engine>(config, direct_serial);
  it.effective_shards = engine->effective_shards();
  const auto wall0 = Clock::now();
  const double cpu0 = process_cpu_seconds();
  {
    Scope iteration{tracer, "iteration"};
    std::string checkpoint;
    for (int day = 1; day <= w.days; ++day) {
      const double epoch_cpu0 = process_cpu_seconds();
      {
        Scope span{tracer, "sim.epoch"};
        engine->run_until(Time::from_days(static_cast<double>(day)));
      }
      it.epoch_cpu_s += process_cpu_seconds() - epoch_cpu0;
      if (const auto pending = engine->pending_events()) it.pending.push_back(*pending);
      if (!resume) continue;
      if (w.checkpoint_each_epoch) {
        Scope span{tracer, "sim.checkpoint"};
        std::ostringstream out;
        engine->sharded().checkpoint(out);
        checkpoint = std::move(out).str();
        it.checkpoint_bytes += checkpoint.size();
        ++it.checkpoints;
      }
      if (day == w.resume_after_epoch) {
        it.busy_max_s += engine->max_shard_busy_seconds();
        engine.reset();
        {
          Scope span{tracer, "net.rebuild"};
          engine = std::make_unique<Engine>(config, /*direct_serial=*/false);
        }
        Scope span{tracer, "sim.restore"};
        std::istringstream in{checkpoint};
        engine->sharded().restore(in);
      }
    }
    Scope span{tracer, "net.finalize"};
    engine->finalize_metrics();
  }
  it.cpu_s = process_cpu_seconds() - cpu0;
  it.wall_s = seconds_between(wall0, Clock::now());
  it.busy_max_s += engine->max_shard_busy_seconds();
  it.digest = fleet_digest(*engine);
  it.counters = count(*engine);
  return it;
}

// --- layer functions timed on workload-shaped inputs -----------------------------

/// One public EventQueue schedule + pop pair with the queue held at `depth`.
double queue_ns_per_event(std::size_t depth, std::uint64_t seed) {
  Rng rng{seed, 0x9e};
  const std::int64_t day_us = Time::from_days(1.0).us();
  std::vector<double> reps;
  std::uint64_t fired = 0;
  for (int rep = 0; rep < 5; ++rep) {
    EventQueue q;
    for (std::size_t i = 0; i < depth; ++i) {
      q.schedule(Time::from_us(rng.uniform_int(0, day_us)), [&fired] { ++fired; });
    }
    constexpr int kPairs = 1 << 20;
    const auto t0 = Clock::now();
    for (int i = 0; i < kPairs; ++i) {
      EventQueue::Popped ev = q.pop();
      ev.callback();
      q.schedule(ev.time + Time::from_us(rng.uniform_int(0, day_us)), [&fired] { ++fired; });
    }
    reps.push_back(seconds_between(t0, Clock::now()) * 1e9 / kPairs);
  }
  if (fired == 0) throw std::logic_error{"queue benchmark fired nothing"};
  return median(reps);
}

/// WindowSelector::select on inputs shaped like the fleet's windows: one
/// window per forecast minute of a sampling period drawn from the
/// scenario's [min_period, max_period].
double select_ns(const ScenarioConfig& config, std::uint64_t seed) {
  Rng rng{seed, 0x5e1};
  const std::unique_ptr<UtilityFunction> utility = make_utility(config);
  const Energy max_tx = Energy::from_joules(0.1);
  struct Shape {
    std::vector<Energy> harvest;
    std::vector<Energy> cost;
    Energy battery;
    double w_u;
  };
  std::vector<Shape> shapes(256);
  const std::int64_t lo = config.min_period / config.forecast_window;
  const std::int64_t hi = config.max_period / config.forecast_window;
  for (Shape& s : shapes) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(lo, hi));
    for (std::size_t t = 0; t < n; ++t) {
      s.harvest.push_back(Energy::from_joules(rng.uniform(0.0, 0.2)));
      s.cost.push_back(Energy::from_joules(rng.uniform(0.04, 0.12)));
    }
    s.battery = Energy::from_joules(rng.uniform(0.0, 2.0));
    s.w_u = rng.uniform();
  }
  const WindowSelector selector;
  WindowSelector::Workspace ws;
  std::vector<double> reps;
  std::int64_t chosen = 0;
  for (int rep = 0; rep < 5; ++rep) {
    constexpr int kCalls = 1 << 18;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      const Shape& s = shapes[static_cast<std::size_t>(i) % shapes.size()];
      WindowSelectorInput in;
      in.battery = s.battery;
      in.storage_cap = Energy::from_joules(1.0);
      in.w_u = s.w_u;
      in.w_b = config.w_b;
      in.harvest = s.harvest;
      in.tx_cost = s.cost;
      in.max_tx = max_tx;
      in.utility = utility.get();
      chosen += selector.select(in, ws).window;
    }
    reps.push_back(seconds_between(t0, Clock::now()) * 1e9 / kCalls);
  }
  if (chosen == 0) throw std::logic_error{"select benchmark chose nothing"};
  return median(reps);
}

/// A day of hourly SoC transitions for one node.
std::vector<SocSample> day_trace(Rng& rng, int day) {
  std::vector<SocSample> samples;
  for (int h = 0; h < 24; ++h) {
    const double t_s = (static_cast<double>(day) * 24.0 + h) * 3600.0;
    const double soc = 0.5 + 0.3 * std::sin(h * 0.2618) + rng.uniform(-0.05, 0.05);
    samples.push_back(SocSample{Time::from_seconds(t_s), soc});
  }
  return samples;
}

/// DegradationService::recompute at fleet size, every node dirty.
double recompute_s(int nodes, std::uint64_t seed) {
  Rng rng{seed, 0x4ec};
  const DegradationModel model;
  DegradationService svc{model, 25.0};
  for (int i = 0; i < nodes; ++i) svc.register_node(static_cast<std::uint32_t>(i));
  std::vector<double> reps;
  for (int day = 0; day < 3; ++day) {
    for (int i = 0; i < nodes; ++i) {
      const std::vector<SocSample> samples = day_trace(rng, day);
      svc.ingest(static_cast<std::uint32_t>(i), samples);
    }
    const auto t0 = Clock::now();
    svc.recompute(Time::from_days(static_cast<double>(day + 1)));
    reps.push_back(seconds_between(t0, Clock::now()));
  }
  return median(reps);
}

struct Report {
  std::uint32_t node;
  std::uint16_t seq;
  std::uint8_t crc;
  std::array<SocSample, 2> samples;
};

/// A report stream in round-robin node order; `faulted` applies the
/// city_resume mix: 10% lost, 10% swapped with the node's next report, 5%
/// with a corrupted checksum.
std::vector<Report> report_stream(int nodes, int rounds, bool faulted, std::uint64_t seed) {
  Rng rng{seed, faulted ? 0xfa0ULL : 0xc1eULL};
  std::vector<Report> out;
  std::vector<std::optional<Report>> held(static_cast<std::size_t>(nodes));
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < nodes; ++i) {
      Report rep{};
      rep.node = static_cast<std::uint32_t>(i);
      rep.seq = static_cast<std::uint16_t>(r);
      const double t_s = r * 1200.0 + i * 1e-3;
      rep.samples = {SocSample{Time::from_seconds(t_s), rng.uniform(0.2, 0.8)},
                     SocSample{Time::from_seconds(t_s + 600.0), rng.uniform(0.2, 0.8)}};
      rep.crc = report_checksum(rep.seq, rep.samples);
      auto& parked = held[static_cast<std::size_t>(i)];
      if (parked) {
        out.push_back(rep);
        out.push_back(*parked);
        parked.reset();
        continue;
      }
      if (faulted) {
        const double u = rng.uniform();
        if (u < 0.10) continue;
        if (u < 0.20) {
          parked = rep;
          continue;
        }
        if (u < 0.25) rep.crc ^= 0x01;
      }
      out.push_back(rep);
    }
  }
  return out;
}

double ingest_ns_per_report(int nodes, bool faulted, std::uint64_t seed) {
  const int rounds = std::max(4, 400000 / std::max(nodes, 1));
  const std::vector<Report> stream = report_stream(nodes, rounds, faulted, seed);
  const DegradationModel model;
  std::vector<double> reps;
  for (int rep = 0; rep < 3; ++rep) {
    DegradationService svc{model, 25.0};
    for (int i = 0; i < nodes; ++i) svc.register_node(static_cast<std::uint32_t>(i));
    const auto t0 = Clock::now();
    for (const Report& r : stream) svc.ingest_report(r.node, r.seq, r.crc, r.samples);
    reps.push_back(seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(stream.size()));
  }
  return median(reps);
}

// --- output ------------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string counters_json(const Counters& c) {
  const LedgerCounters& l = c.ledger;
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"events", c.events},
      {"generated", c.generated},
      {"delivered", c.delivered},
      {"tx_attempts", c.tx_attempts},
      {"selections", c.selections},
      {"arrivals", c.arrivals},
      {"received", c.received},
      {"lost_interference", c.lost_interference},
      {"lost_under_sensitivity", c.lost_under_sensitivity},
      {"reports_dropped", c.reports_dropped},
      {"reports_reordered", c.reports_reordered},
      {"reports_corrupted", c.reports_corrupted},
      {"ledger_reports_accepted", l.reports_accepted},
      {"ledger_reports_duplicate", l.reports_duplicate},
      {"ledger_reports_checksum_rejected", l.reports_checksum_rejected},
      {"ledger_reports_buffered", l.reports_buffered},
      {"ledger_gaps_bridged", l.gaps_bridged},
      {"ledger_quarantines", l.quarantines},
  };
  std::string s = "{";
  for (const auto& [key, value] : fields) {
    if (s.size() > 1) s += ", ";
    s += std::string{"\""} + key + "\": " + num(value);
  }
  return s + "}";
}

std::string iteration_json(const Iteration& it) {
  std::string pending = "[";
  for (std::size_t i = 0; i < it.pending.size(); ++i) {
    if (i > 0) pending += ", ";
    pending += std::to_string(it.pending[i]);
  }
  pending += "]";
  return std::string{"{\"traced\": "} + (it.traced ? "true" : "false") +
         ", \"wall_s\": " + num(it.wall_s) + ", \"cpu_s\": " + num(it.cpu_s) +
         ", \"epoch_cpu_s\": " + num(it.epoch_cpu_s) + ", \"busy_max_s\": " + num(it.busy_max_s) +
         ", \"effective_shards\": " + std::to_string(it.effective_shards) + ", \"digest\": \"" +
         hex(it.digest) + "\", \"checkpoint_bytes\": " + num(it.checkpoint_bytes) +
         ", \"checkpoints\": " + std::to_string(it.checkpoints) +
         ", \"pending\": " + pending + ", \"counters\": " + counters_json(it.counters) + "}";
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
  bool trace{false};
  bool small{false};
  std::string spans;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--small") {
      a.small = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument{"missing value for " + key};
    const std::string value = argv[++i];
    if (key == "--mode") {
      a.mode = value;
    } else if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--spans") {
      a.spans = value;
    } else {
      throw std::invalid_argument{"unknown argument " + key};
    }
  }
  if (a.mode != "setup" && a.mode != "run") throw std::invalid_argument{"--mode setup|run"};
  return a;
}

int run_setup(const Args& a) {
  const auto t0 = Clock::now();
  const Workload w = make_workload(a.workload, a.seed, a.small);
  const ShardedNetwork engine{w.config};
  const double setup_s = seconds_between(t0, Clock::now());
  std::printf("{\"setup_s\": %s, \"effective_shards\": %d}\n", num(setup_s).c_str(),
              engine.plan().effective);
  return 0;
}

int run_measure(const Args& a) {
  const Workload w = make_workload(a.workload, a.seed, a.small);
  const bool sharded = w.config.shards > 1;
  Tracer tracer;
  if (a.trace) {
    // Setup split: the constructor span (first build in this process) holds
    // the planner and trace spans; the constructor given a trace re-plans
    // the deployment but does not rebuild the trace.
    std::unique_ptr<ShardedNetwork> engine;
    {
      Scope construct{&tracer, "net.construct"};
      DeploymentPlan plan;
      {
        Scope span{&tracer, "net.plan_deployment"};
        plan = plan_deployment(w.config, Rng{w.config.seed, salt::kRootStream});
      }
      std::shared_ptr<const SolarTrace> trace;
      {
        Scope span{&tracer, "energy.solar_trace"};
        trace = build_deployment_trace(w.config, plan.worst_attempt_energy);
      }
      engine = std::make_unique<ShardedNetwork>(w.config, std::move(trace));
    }
  }

  // The iteration count follows from --seconds and the workload alone, never
  // from the measured speed, so every run at one --seconds does the same
  // work (a time-based stop flips the count when an iteration's length sits
  // near the limit).
  const auto count = std::max<long>(a.trace ? 2 : 1, std::lround(a.seconds / w.iteration_s));
  std::vector<Iteration> iterations;
  for (long i = 0; i < count; ++i) {
    // Traced runs alternate traced and untraced iterations.
    const bool traced = a.trace && i % 2 == 0;
    iterations.push_back(run_iteration(w, w.config, /*resume=*/true, traced ? &tracer : nullptr,
                                       /*direct_serial=*/a.trace && !sharded));
  }

  const Iteration reference =
      run_iteration(w, w.reference, /*resume=*/false, nullptr, /*direct_serial=*/false);

  std::string micro = "{}";
  if (a.trace) {
    const Iteration& first = iterations.front();
    std::vector<double> pending(first.pending.begin(), first.pending.end());
    // Sharded engines do not expose their queues; there the depth is taken
    // as one shard's share of the fleet.
    const std::size_t depth =
        pending.empty()
            ? static_cast<std::size_t>(w.config.n_nodes / std::max(first.effective_shards, 1))
            : static_cast<std::size_t>(median(pending));
    micro = "{\"queue_depth\": " + num(static_cast<std::uint64_t>(depth)) +
            ", \"queue_ns_per_event\": " + num(queue_ns_per_event(depth, a.seed)) +
            ", \"select_ns\": " + num(select_ns(w.config, a.seed)) +
            ", \"recompute_s\": " + num(recompute_s(w.config.n_nodes, a.seed)) +
            ", \"ingest_ns_clean\": " + num(ingest_ns_per_report(w.config.n_nodes, false, a.seed)) +
            ", \"ingest_ns_faulted\": " +
            num(ingest_ns_per_report(w.config.n_nodes, true, a.seed)) + "}";
    if (!a.spans.empty()) tracer.write(a.spans);
  }

  std::string its = "[";
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    if (i > 0) its += ", ";
    its += iteration_json(iterations[i]);
  }
  its += "]";
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"nodes\": %d, \"days\": %d, "
      "\"iterations\": %s, \"reference_digest\": \"%s\", \"micro\": %s, "
      "\"peak_rss_mb\": %s}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), w.config.n_nodes, w.days,
      its.c_str(), hex(reference.digest).c_str(), micro.c_str(), num(peak_rss_mb()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold. Left dynamic, it rises after the first large
  // free, and whether the ~46 MB checkpoint buffers then come from mmap or
  // stay resident in the heap depends on allocation order: peak RSS of
  // city_resume jumped between ~242 and ~271 MB from run to run.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  try {
    const Args a = parse(argc, argv);
    return a.mode == "setup" ? run_setup(a) : run_measure(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "blam_perf: error: %s\n", e.what());
    return 1;
  }
}
