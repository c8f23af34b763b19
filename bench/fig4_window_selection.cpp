// Fig. 4 — "Forecast window selection": for LoRaWAN and H-5/H-50/H-100,
// the number of nodes that transmitted the majority of their packets in
// each forecast window. Paper shape: LoRaWAN always window 1 (index 0);
// the proposed MAC distributes nodes across the first ~4 windows.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"

int run_program() {
  using namespace blam;
  using namespace blam::bench;

  const int nodes = scaled(500, 200);
  const double years = scaled(5.0, 1.0);
  banner("Fig. 4 - majority forecast window per node",
         "LoRaWAN: all nodes in window 0; H-x: nodes spread over the first ~4 windows");

  const ProtocolSweep sweep = run_protocol_sweep(nodes, years, /*seed=*/42);

  std::size_t max_w = 1;
  for (const auto& r : sweep.results) max_w = std::max(max_w, r.window_histogram.size());
  const std::size_t shown = std::min<std::size_t>(max_w, 8);

  std::printf("\n%-10s", "protocol");
  for (std::size_t w = 0; w < shown; ++w) std::printf("   w%-4zu", w);
  std::printf("  beyond\n");

  std::vector<std::vector<std::string>> rows;
  for (const auto& r : sweep.results) {
    std::printf("%-10s", r.label.c_str());
    int beyond = 0;
    for (std::size_t w = 0; w < r.window_histogram.size(); ++w) {
      if (w >= shown) beyond += r.window_histogram[w];
    }
    for (std::size_t w = 0; w < shown; ++w) {
      const int count = w < r.window_histogram.size() ? r.window_histogram[w] : 0;
      std::printf(" %7d", count);
      rows.push_back({r.label, CsvWriter::cell(static_cast<std::int64_t>(w)),
                      CsvWriter::cell(static_cast<std::int64_t>(count))});
    }
    std::printf(" %7d\n", beyond);
  }
  write_csv("fig4_window_selection", {"protocol", "window", "nodes"}, rows);

  const auto& h50 = sweep.results[2];
  int h50_beyond_first = 0;
  for (std::size_t w = 1; w < h50.window_histogram.size(); ++w) {
    h50_beyond_first += h50.window_histogram[w];
  }
  std::printf("\nH-50 nodes with majority window > 0: %d / %d (paper: most nodes within the "
              "first 4 windows, substantial spread beyond window 0)\n",
              h50_beyond_first, nodes);
  return 0;
}

int main() { return blam::bench::guarded_main("fig4_window_selection", run_program); }
