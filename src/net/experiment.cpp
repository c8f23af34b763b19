#include "net/experiment.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/state_codec.hpp"
#include "net/deployment_plan.hpp"
#include "net/scenario_io.hpp"
#include "sim/shard_engine.hpp"

namespace blam {
namespace {

// Recorded violations (throw_on_violation off) must still reach the user:
// one stderr block per run, summary plus the first few structured records.
void report_audit(const Auditor* audit) {
  if (audit == nullptr || audit->violation_count() == 0) return;
  std::fprintf(stderr, "[audit] %s\n", audit->summary().c_str());
  constexpr std::size_t kShow = 5;
  const auto& violations = audit->violations();
  for (std::size_t i = 0; i < violations.size() && i < kShow; ++i) {
    std::fprintf(stderr, "%s\n", violations[i].to_string().c_str());
  }
  if (audit->violation_count() > kShow) {
    std::fprintf(stderr, "[audit] ... and %zu more\n", audit->violation_count() - kShow);
  }
}

}  // namespace

ExperimentResult run_scenario(const ScenarioConfig& config, Time duration,
                              std::shared_ptr<const SolarTrace> shared_trace,
                              const CellToken* token) {
  // One slice unless the scenario both asks for shards (config.shards /
  // BLAM_SHARDS) and decomposes into more than one collision domain; the
  // results are bit-identical either way.
  ShardedNetwork network{config, std::move(shared_trace)};
  if (token != nullptr) {
    // Cancellation points: advance in slices and poll between them. Setting
    // the clock to an intermediate instant changes nothing about the event
    // trace, so the sliced run is bit-identical to one run_until(duration).
    constexpr std::int64_t kSlices = 128;
    const Time slice = Time::from_us(duration.us() / kSlices);
    if (slice > Time::zero()) {
      for (std::int64_t i = 1; i < kSlices; ++i) {
        token->throw_if_cancelled();
        network.run_until(slice * i);
      }
    }
    token->throw_if_cancelled();
  }
  network.run_until(duration);
  network.finalize_metrics();
  report_audit(network.auditor());

  ExperimentResult result;
  result.label = config.policy_label();
  result.summary = network.metrics().summarize();
  result.gateway = network.metrics().gateway();
  result.window_histogram = network.metrics().majority_window_histogram(network.max_windows());
  result.nodes.reserve(network.metrics().node_count());
  for (std::size_t i = 0; i < network.metrics().node_count(); ++i) {
    result.nodes.push_back(network.metrics().node(i));
  }
  result.events_executed = network.events_executed();
  return result;
}

LifespanResult run_until_eol(const ScenarioConfig& config, Time max_duration, Time step,
                             std::shared_ptr<const SolarTrace> shared_trace,
                             const CellToken* token) {
  ShardedNetwork network{config, std::move(shared_trace)};
  const double eol = config.degradation.eol_threshold;

  LifespanResult result;
  result.label = config.policy_label();
  result.series_step = step;

  Time now = Time::zero();
  while (now < max_duration) {
    if (token != nullptr) token->throw_if_cancelled();
    now += step;
    network.run_until(now);
    const double max_deg = network.max_degradation();
    result.max_degradation_series.push_back(max_deg);
    if (max_deg >= eol) {
      result.reached_eol = true;
      result.lifespan = now;
      report_audit(network.auditor());
      return result;
    }
  }
  result.lifespan = max_duration;
  report_audit(network.auditor());
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

namespace {

SweepOptions with_default_labels(SweepOptions options, const std::vector<ScenarioCell>& cells) {
  if (!options.label) {
    options.label = [&cells](std::size_t i) { return cells[i].config.policy_label(); };
  }
  return options;
}

}  // namespace

std::vector<ExperimentResult> run_scenarios(const std::vector<ScenarioCell>& cells, Time duration,
                                            SweepOptions options) {
  SweepRunner runner{with_default_labels(std::move(options), cells)};
  return runner.map(cells.size(), [&](std::size_t i) {
    return run_scenario(cells[i].config, duration, cells[i].trace);
  });
}

std::vector<LifespanResult> run_lifespans(const std::vector<ScenarioCell>& cells,
                                          Time max_duration, Time step, SweepOptions options) {
  SweepRunner runner{with_default_labels(std::move(options), cells)};
  return runner.map(cells.size(), [&](std::size_t i) {
    return run_until_eol(cells[i].config, max_duration, step, cells[i].trace);
  });
}

namespace {

/// Campaign identity for a cell: the human-readable scenario dump plus the
/// run kind and durations. A change to any field describe_scenario prints
/// (seed and duration included) changes the key, so a stale journal is
/// never replayed into it; a field it does not print must be added there
/// before a journaled grid varies it.
std::vector<CampaignCell> campaign_cells(const std::vector<ScenarioCell>& cells,
                                         const std::string& run_kind, Time a, Time b) {
  std::vector<CampaignCell> out;
  out.reserve(cells.size());
  for (const ScenarioCell& cell : cells) {
    CampaignCell cc;
    cc.label = cell.config.policy_label();
    cc.seed = cell.config.seed;
    cc.config_text = describe_scenario(cell.config);
    cc.key = run_kind + " " + std::to_string(a.us()) + " " + std::to_string(b.us()) + "\n" +
             cc.config_text;
    out.push_back(std::move(cc));
  }
  return out;
}

}  // namespace

std::vector<ExperimentResult> run_scenarios(const std::vector<ScenarioCell>& cells, Time duration,
                                            CampaignOptions options) {
  if (!options.journal_path.empty()) {
    throw std::invalid_argument{
        "run_scenarios: ExperimentResult has no lossless codec, so these grids cannot be "
        "journaled; use the run_lifespans overload for resumable campaigns"};
  }
  const std::string quarantine_path = options.quarantine_path;
  options.sweep = with_default_labels(std::move(options.sweep), cells);
  Campaign campaign{campaign_cells(cells, "scenarios", duration, Time::zero()),
                    std::move(options)};
  // Results travel in a side vector (the journal is off, so Campaign's
  // string payloads carry nothing); slots are distinct per cell, making the
  // writes race-free across workers.
  std::vector<std::optional<ExperimentResult>> slots(cells.size());
  const CampaignReport report = campaign.run([&](std::size_t i, const CellToken& token) {
    slots[i] = run_scenario(cells[i].config, duration, cells[i].trace, &token);
    return std::string{};
  });
  throw_if_quarantined(report, quarantine_path);
  std::vector<ExperimentResult> results;
  results.reserve(slots.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

std::vector<LifespanResult> run_lifespans(const std::vector<ScenarioCell>& cells,
                                          Time max_duration, Time step, CampaignOptions options) {
  const std::string quarantine_path = options.quarantine_path;
  options.sweep = with_default_labels(std::move(options.sweep), cells);
  // The kind names the payload format: journals written with an older
  // lifespan payload keyed their cells without the "v2" tag, so their
  // entries match no cell here and those cells rerun instead of reaching a
  // decoder that cannot read them.
  Campaign campaign{campaign_cells(cells, "lifespans v2", max_duration, step),
                    std::move(options)};
  const CampaignReport report = campaign.run([&](std::size_t i, const CellToken& token) {
    return serialize_lifespan_result(
        run_until_eol(cells[i].config, max_duration, step, cells[i].trace, &token));
  });
  throw_if_quarantined(report, quarantine_path);
  std::vector<LifespanResult> results;
  results.reserve(report.results.size());
  // Fresh and journal-resumed payloads both pass through the codec here, so
  // the two paths cannot produce different in-memory results.
  for (const auto& payload : report.results) {
    results.push_back(deserialize_lifespan_result(*payload));
  }
  return results;
}

}  // namespace blam
