// Experiment runners shared by the bench binaries and integration tests:
// run a scenario for a fixed duration and collect the figure metrics, run
// until the first battery reaches end of life (Figs. 7-8), or fan a grid of
// independent scenario cells across cores as a resumable Campaign.
#pragma once

#include <string>
#include <vector>

#include "common/units.hpp"
#include "energy/solar.hpp"
#include "net/metrics.hpp"
#include "net/scenario.hpp"
#include "sim/campaign.hpp"

namespace blam {

struct ExperimentResult {
  std::string label;
  NetworkSummary summary;
  GatewayMetrics gateway;
  /// result[w] = nodes whose majority-selected window is w (Fig. 4).
  std::vector<int> window_histogram;
  /// Per-node records for distribution plots.
  std::vector<NodeMetrics> nodes;
  std::uint64_t events_executed{0};
};

/// Runs `config` for `duration` of simulated time. If `shared_trace` is
/// non-null the scenario uses that weather instead of synthesizing its own
/// (so protocol variants face identical conditions). A non-null `token`
/// makes the run cancellable: the simulation advances in slices and throws
/// CellTimeout between them once the token's deadline passed — slicing run_until is
/// bit-identical to a single call.
[[nodiscard]] ExperimentResult run_scenario(
    const ScenarioConfig& config, Time duration,
    std::shared_ptr<const SolarTrace> shared_trace = nullptr, const CellToken* token = nullptr);

struct LifespanResult {
  std::string label;
  /// Time of the first battery EoL, quantized to the sampling step.
  Time lifespan{};
  bool reached_eol{false};
  /// Max degradation across the network at each sampling step (Fig. 7).
  std::vector<double> max_degradation_series;
  Time series_step{};
};

/// Runs `config` until the first node's battery degrades past the model's
/// EoL threshold (or `max_duration`), sampling max degradation every `step`.
/// A non-null `token` is polled at every step (see run_scenario).
[[nodiscard]] LifespanResult run_until_eol(const ScenarioConfig& config, Time max_duration,
                                           Time step,
                                           std::shared_ptr<const SolarTrace> shared_trace = nullptr,
                                           const CellToken* token = nullptr);

/// Lossless codec for LifespanResult: one `lifespan` section of the state
/// codec (common/state_codec.hpp), doubles as bit patterns, so
/// deserialize(serialize(r)) == r down to the last bit. This is the
/// campaign-journal payload format — a resumed cell's result is
/// indistinguishable from a freshly computed one. The label must not
/// contain a newline.
[[nodiscard]] std::string serialize_lifespan_result(const LifespanResult& result);
/// Inverse of serialize_lifespan_result; throws a named std::runtime_error
/// on a payload it does not recognize (wrong section, bad token, section
/// hash mismatch, trailing data).
[[nodiscard]] LifespanResult deserialize_lifespan_result(const std::string& payload);

/// Lossless codec for the results run_scenario returns: one `experiment`
/// section built on the metric rows of net/metrics.hpp, plus the run's event
/// count, total outage, ledger counters and serial reason. Decode rebuilds a
/// Metrics and re-derives the summary and window histogram through the code
/// run_scenario runs, so deserialize(serialize(r)) == r bit for bit. The
/// label must not contain a newline.
[[nodiscard]] std::string serialize_experiment_result(const ExperimentResult& result);
/// Inverse of serialize_experiment_result; throws a named std::runtime_error
/// on a payload it does not recognize.
[[nodiscard]] ExperimentResult deserialize_experiment_result(const std::string& payload);

/// Builds (or reuses) the weather shared by a batch of compared scenarios.
[[nodiscard]] std::shared_ptr<const SolarTrace> build_shared_trace(const ScenarioConfig& config);

/// One cell of a scenario grid: a config plus (optionally) the weather it
/// shares with sibling cells. A null trace lets the Network synthesize its
/// own from config.seed. Cells are fully independent — each builds its own
/// Network whose random streams derive from config.seed alone — so a grid
/// can run under any worker count with bit-identical results (SolarTrace is
/// immutable after construction and safe to share across workers).
struct ScenarioCell {
  ScenarioConfig config;
  std::shared_ptr<const SolarTrace> trace;
};

/// Runs every cell for `duration` as a Campaign (sim/campaign.hpp): BLAM_JOBS
/// workers by default, per-cell watchdog, retry and quarantine, and, with a
/// journal_path, resume. A cell's journal key is the run kind, the durations
/// and a hash of write_scenario_key (net/scenario_io.hpp), so an interrupted
/// grid re-run skips the journaled cells and reproduces their results bit
/// for bit. Every result, fresh or resumed, is round-tripped through its
/// codec, so the two paths cannot diverge. Results come back in cell order,
/// bit-identical to calling run_scenario on each cell serially; progress
/// labels are the cells' policy labels. Throws (naming the quarantine file)
/// if any cell failed all attempts.
[[nodiscard]] std::vector<ExperimentResult> run_scenarios(const std::vector<ScenarioCell>& cells,
                                                          Time duration,
                                                          CampaignOptions options = {});

/// Campaign analogue of run_until_eol over a grid of cells (see
/// run_scenarios).
[[nodiscard]] std::vector<LifespanResult> run_lifespans(const std::vector<ScenarioCell>& cells,
                                                        Time max_duration, Time step,
                                                        CampaignOptions options = {});

}  // namespace blam
