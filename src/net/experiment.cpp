#include "net/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/checksum.hpp"
#include "common/state_codec.hpp"
#include "net/deployment_plan.hpp"
#include "net/scenario_io.hpp"
#include "sim/shard_engine.hpp"

namespace blam {
namespace {

// Recorded violations (BLAM_AUDIT_THROW off) must still reach the user:
// one stderr block per run, summary plus the first few structured records.
void report_audit(const std::optional<AuditReport>& audit) {
  if (!audit.has_value() || audit->violation_count == 0) return;
  std::fprintf(stderr, "[audit] %s\n", audit->summary().c_str());
  constexpr std::size_t kShow = 5;
  for (std::size_t i = 0; i < audit->violations.size() && i < kShow; ++i) {
    std::fprintf(stderr, "%s\n", audit->violations[i].to_string().c_str());
  }
  if (audit->violation_count > kShow) {
    std::fprintf(stderr, "[audit] ... and %zu more\n",
                 static_cast<std::size_t>(audit->violation_count - kShow));
  }
}

/// The result of a finished run, derived from its metrics: the fresh path
/// and the decoder both build results here. The node rows move into the
/// result; nothing else holds them afterwards.
ExperimentResult collect_result(std::string label, Metrics metrics,
                                std::uint64_t events_executed) {
  ExperimentResult result;
  result.label = std::move(label);
  result.summary = metrics.summarize();
  result.gateway = metrics.gateway();
  // A node's window row has one entry per forecast window of its period, so
  // the widest row is the histogram's width.
  std::size_t n_windows = 1;
  for (std::size_t i = 0; i < metrics.node_count(); ++i) {
    n_windows = std::max(n_windows, metrics.node(i).window_counts.size());
  }
  result.window_histogram = metrics.majority_window_histogram(static_cast<int>(n_windows));
  result.nodes = std::move(metrics).release_nodes();
  result.events_executed = events_executed;
  return result;
}

}  // namespace

ExperimentResult run_scenario(const ScenarioConfig& config, Time duration,
                              std::shared_ptr<const SolarTrace> shared_trace) {
  // One slice unless the scenario both asks for shards (config.shards /
  // BLAM_SHARDS) and decomposes into more than one collision domain; the
  // results are bit-identical either way.
  ShardedNetwork network{config, std::move(shared_trace)};
  network.run_until(duration);
  network.finalize_metrics();
  report_audit(network.audit_report());

  const std::uint64_t events = network.events_executed();
  return collect_result(config.policy_label(), std::move(network).release_metrics(), events);
}

LifespanResult run_until_eol(const ScenarioConfig& config, Time max_duration, Time step,
                             std::shared_ptr<const SolarTrace> shared_trace) {
  ShardedNetwork network{config, std::move(shared_trace)};
  const double eol = config.degradation.eol_threshold;

  LifespanResult result;
  result.label = config.policy_label();
  result.series_step = step;

  Time now = Time::zero();
  while (now < max_duration) {
    now += step;
    network.run_until(now);
    const double max_deg = network.max_degradation();
    result.max_degradation_series.push_back(max_deg);
    if (max_deg >= eol) {
      result.reached_eol = true;
      result.lifespan = now;
      report_audit(network.audit_report());
      return result;
    }
  }
  result.lifespan = max_duration;
  report_audit(network.audit_report());
  return result;
}

std::shared_ptr<const SolarTrace> build_shared_trace(const ScenarioConfig& config) {
  // The trace's peak is sized from the deployment's worst attempt energy:
  // the same calls a Network makes, without building the fleet.
  config.validate();
  const DeploymentPlan deployment = plan_deployment(config, Rng{config.seed, salt::kRootStream});
  return build_deployment_trace(config, deployment.worst_attempt_energy);
}

std::string serialize_lifespan_result(const LifespanResult& r) {
  std::ostringstream out;
  StateWriter w{out};
  w.begin_section("lifespan");
  w.put_string(r.label);
  w.put_u64(r.reached_eol ? 1 : 0);
  w.put_i64(r.lifespan.us());
  w.put_i64(r.series_step.us());
  w.put_u64(r.max_degradation_series.size());
  for (const double v : r.max_degradation_series) w.put_double(v);
  w.end_section();
  return std::move(out).str();
}

LifespanResult deserialize_lifespan_result(const std::string& payload) {
  StateReader r{payload};
  r.begin_section("lifespan");
  LifespanResult result;
  result.label = r.get_string();
  const std::uint64_t reached = r.get_u64();
  if (reached > 1) throw std::runtime_error{"deserialize_lifespan_result: reached_eol is not 0/1"};
  result.reached_eol = reached == 1;
  result.lifespan = Time::from_us(r.get_i64());
  result.series_step = Time::from_us(r.get_i64());
  for (std::uint64_t i = 0, n = r.get_u64(); i < n; ++i) {
    result.max_degradation_series.push_back(r.get_double());
  }
  r.end_section();
  if (!r.at_end()) {
    throw std::runtime_error{"deserialize_lifespan_result: trailing data after the payload"};
  }
  return result;
}

std::string serialize_experiment_result(const ExperimentResult& r) {
  std::ostringstream out;
  StateWriter w{out};
  w.begin_section("experiment");
  w.put_string(r.label);
  w.put_u64(r.events_executed);
  w.put_double(r.summary.total_outage_s);
  write_ledger_counters(w, r.summary.feedback);
  w.put_string(r.summary.serial_reason);
  w.put_u64(r.nodes.size());
  for (const NodeMetrics& node : r.nodes) {
    w.put_u64(node.window_counts.size());
    write_node_metrics(w, node);
    write_node_battery(w, node);
  }
  write_gateway_metrics(w, r.gateway);
  w.end_section();
  return std::move(out).str();
}

ExperimentResult deserialize_experiment_result(const std::string& payload) {
  const auto fail = [](const char* what) {
    throw std::runtime_error{std::string{"deserialize_experiment_result: "} + what};
  };
  StateReader r{payload};
  r.begin_section("experiment");
  std::string label = r.get_string();
  const std::uint64_t events_executed = r.get_u64();
  const double total_outage_s = r.get_double();
  LedgerCounters feedback;
  read_ledger_counters(r, feedback);
  std::string serial_reason = r.get_string();
  std::vector<NodeMetrics> nodes;
  for (std::uint64_t i = 0, n = r.get_u64(); i < n; ++i) {
    NodeMetrics& node = nodes.emplace_back();
    const std::uint64_t width = r.get_u64();
    if (width > kMaxForecastWindows) fail("window count out of range");
    node.window_counts.assign(width, 0);
    read_node_metrics(r, node);
    read_node_battery(r, node);
  }
  Metrics metrics{std::move(nodes)};
  read_gateway_metrics(r, metrics.gateway());
  r.end_section();
  if (!r.at_end()) fail("trailing data after the payload");

  metrics.set_total_outage(total_outage_s);
  metrics.set_feedback(feedback);
  metrics.set_serial_reason(std::move(serial_reason));
  return collect_result(std::move(label), std::move(metrics), events_executed);
}

namespace {

/// Runs `cells` as a Campaign of `kind` runs (the payload's section name)
/// over durations `a` and `b`, and decodes every payload, fresh or resumed,
/// with `decode`. A cell's key hashes write_scenario_key, so a change to any
/// config field, or to the kind or a duration, keeps a stale journal entry
/// from being replayed into it.
template <typename Decode>
auto run_campaign(const std::vector<ScenarioCell>& cells, std::string_view kind, Time a, Time b,
                  CampaignOptions options, const Campaign::Body& body, const Decode& decode) {
  std::vector<CampaignCell> campaign_cells;
  campaign_cells.reserve(cells.size());
  for (const ScenarioCell& cell : cells) {
    std::ostringstream key;
    StateWriter w{key};
    w.begin_section("scenario-key");
    write_scenario_key(w, cell.config);
    w.end_section();
    campaign_cells.push_back({std::string{kind} + " " + std::to_string(a.us()) + " " +
                                  std::to_string(b.us()) + " " +
                                  std::to_string(fnv1a64(std::move(key).str())),
                              cell.config.policy_label()});
  }
  Campaign campaign{std::move(campaign_cells), std::move(options)};
  const CampaignReport report = campaign.run(body);
  std::vector<decltype(decode(std::string{}))> results;
  results.reserve(report.results.size());
  for (const std::string& payload : report.results) results.push_back(decode(payload));
  return results;
}

}  // namespace

std::vector<ExperimentResult> run_scenarios(const std::vector<ScenarioCell>& cells, Time duration,
                                            CampaignOptions options) {
  return run_campaign(
      cells, "experiment", duration, Time::zero(), std::move(options),
      [&](std::size_t i) {
        return serialize_experiment_result(run_scenario(cells[i].config, duration, cells[i].trace));
      },
      deserialize_experiment_result);
}

std::vector<LifespanResult> run_lifespans(const std::vector<ScenarioCell>& cells,
                                          Time max_duration, Time step, CampaignOptions options) {
  return run_campaign(
      cells, "lifespan", max_duration, step, std::move(options),
      [&](std::size_t i) {
        return serialize_lifespan_result(
            run_until_eol(cells[i].config, max_duration, step, cells[i].trace));
      },
      deserialize_lifespan_result);
}

}  // namespace blam
