#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "common/csv.hpp"
#include "common/env_number.hpp"

namespace blam::bench {

int guarded_main(const char* program, const std::function<int()>& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", program, e.what());
    return 1;
  }
}

bool full_scale() {
  const char* env = std::getenv("BLAM_FULL");
  return env != nullptr && env[0] == '1';
}

int scaled(int paper, int laptop) { return full_scale() ? paper : laptop; }

double scaled(double paper, double laptop) { return full_scale() ? paper : laptop; }

void banner(const std::string& figure, const std::string& claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("paper: %s\n", claim.c_str());
  std::printf("scale: %s (set BLAM_FULL=1 for the paper scale)\n",
              full_scale() ? "FULL (paper)" : "laptop default");
  std::printf("jobs:  %d sweep worker(s) (override with BLAM_JOBS)\n", resolve_jobs());
  std::printf("================================================================\n");
}

SweepOptions sweep_options() {
  SweepOptions options;
  options.progress = true;
  return options;
}

CampaignOptions campaign_options() {
  refuse_retired_env();
  CampaignOptions options;
  options.sweep = sweep_options();
  if (const char* env = std::getenv("BLAM_JOURNAL"); env != nullptr) {
    options.journal_path = env;
  }
  return options;
}

std::string out_path(const std::string& name) {
  namespace fs = std::filesystem;
  fs::path path{name};
  if (const char* dir = std::getenv("BLAM_OUT_DIR"); dir != nullptr && dir[0] != '\0') {
    path = fs::path{dir} / path;
  }
  if (path.has_parent_path()) {
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    if (ec) {
      throw std::runtime_error{"cannot create output directory " +
                               path.parent_path().string() + ": " + ec.message()};
    }
  }
  return path.string();
}

std::string write_csv(const std::string& name, const std::vector<std::string>& header,
                      const std::vector<std::vector<std::string>>& rows) {
  const std::string path = out_path(name + ".csv");
  CsvWriter writer{path, header};  // throws if the file cannot be opened
  for (const auto& row : rows) writer.row(row);
  writer.flush();  // throws on short/failed writes instead of reporting success
  std::printf("[csv] wrote %s (%zu rows)\n", path.c_str(), rows.size());
  return path;
}

ProtocolSweep run_protocol_sweep(int n_nodes, double years, std::uint64_t seed) {
  ProtocolSweep sweep;
  sweep.n_nodes = n_nodes;
  sweep.years = years;
  const Time duration = Time::from_days(365.0 * years);
  const auto trace = build_shared_trace(lorawan_scenario(n_nodes, seed));

  std::vector<ScenarioCell> cells;
  cells.push_back({lorawan_scenario(n_nodes, seed), trace});
  for (double theta : {0.05, 0.5, 1.0}) {
    cells.push_back({blam_scenario(n_nodes, theta, seed), trace});
  }

  std::printf("running %d nodes x %.2f years x %zu protocols ...\n", n_nodes, years,
              cells.size());
  sweep.results = run_scenarios(cells, duration, campaign_options());
  return sweep;
}

}  // namespace blam::bench
