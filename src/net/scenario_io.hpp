// ScenarioConfig <-> key=value config-file bridge for the scenario-runner
// CLI: every experiment knob is settable from a text file, so sweeps can be
// scripted without recompiling.
#pragma once

#include <string>

#include "common/config.hpp"
#include "net/scenario.hpp"

namespace blam {

/// Builds a ScenarioConfig from a parsed config file, starting from the
/// defaults. Throws std::runtime_error on malformed values or unknown keys
/// (typo protection) and std::invalid_argument if the result fails
/// ScenarioConfig::validate().
[[nodiscard]] ScenarioConfig scenario_from_config(const ConfigFile& file);

/// One-line-per-field human-readable dump (the runner echoes it).
[[nodiscard]] std::string describe_scenario(const ScenarioConfig& config);

class StateWriter;

/// Writes every field of `config` as state-codec values into the section
/// the caller has open. A campaign keys its cells by a hash of these bytes,
/// so two configs share a journal entry only when every field matches.
void write_scenario_key(StateWriter& w, const ScenarioConfig& config);

}  // namespace blam
