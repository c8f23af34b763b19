// Shared plumbing for the figure-reproduction binaries: scale selection
// (laptop defaults vs BLAM_FULL=1 paper scale), banner printing, CSV output
// with directory handling, and the four-protocol comparison harness used by
// Figs. 4-6, run as a resumable campaign across BLAM_JOBS workers.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/experiment.hpp"

namespace blam::bench {

/// Runs a bench program's body and returns its exit status. An exception
/// escaping the body prints "<program>: error: <what>" on stderr and returns
/// 1, so a failed output is a named failure rather than std::terminate.
[[nodiscard]] int guarded_main(const char* program, const std::function<int()>& body);

/// True when BLAM_FULL=1: run the experiment at the paper's scale.
[[nodiscard]] bool full_scale();

/// Picks the paper-scale value under BLAM_FULL, the laptop default otherwise.
[[nodiscard]] int scaled(int paper, int laptop);
[[nodiscard]] double scaled(double paper, double laptop);

/// Prints the figure banner: what the paper shows and what this binary
/// regenerates, plus the active scale and sweep worker count.
void banner(const std::string& figure, const std::string& claim);

/// Default sweep options for figure grids: per-cell progress on stderr,
/// worker count from BLAM_JOBS (hardware_concurrency when unset).
[[nodiscard]] SweepOptions sweep_options();

/// Default campaign options for every figure grid: sweep_options() plus
/// BLAM_JOURNAL, the checkpoint journal (default "" = off): a re-run skips
/// the cells it holds and reproduces their results bit for bit. Throws
/// std::runtime_error naming any retired variable that is set
/// (refuse_retired_env, common/env_number.hpp).
[[nodiscard]] CampaignOptions campaign_options();

/// The path `name` resolves to inside BLAM_OUT_DIR (the current directory
/// when unset), creating the directory if missing. Throws std::runtime_error
/// when it cannot be created: an output written anywhere else, or nowhere, is
/// worse than aborting (a byte-compare against it would pass vacuously).
[[nodiscard]] std::string out_path(const std::string& name);

/// Writes `name`.csv to out_path and returns the path actually written.
/// Throws std::runtime_error when the directory cannot be created or the
/// write fails — figure data silently going missing is worse than aborting.
std::string write_csv(const std::string& name, const std::vector<std::string>& header,
                      const std::vector<std::vector<std::string>>& rows);

/// The evaluation sweep of Sec. IV-A: LoRaWAN, H-5, H-50, H-100 on shared
/// weather and topology seeds.
struct ProtocolSweep {
  std::vector<ExperimentResult> results;  // LoRaWAN, H-5, H-50, H-100
  int n_nodes{0};
  double years{0.0};
};

/// Runs the four-protocol grid through run_scenarios. Cell (protocol, seed)
/// results are bit-identical at any BLAM_JOBS because each cell's Network
/// derives every random stream from its own config, and the shared solar
/// trace is immutable.
[[nodiscard]] ProtocolSweep run_protocol_sweep(int n_nodes, double years, std::uint64_t seed);

}  // namespace blam::bench
