#include "core/window_selector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"

namespace blam {
namespace {

Energy J(double j) { return Energy::from_joules(j); }

struct Fixture {
  LinearUtility utility;
  std::vector<Energy> harvest;
  std::vector<Energy> cost;
  WindowSelectorInput input;

  Fixture(std::vector<double> harvest_j, std::vector<double> cost_j, double battery_j,
          double cap_j, double w_u, double w_b = 1.0) {
    for (double h : harvest_j) harvest.push_back(J(h));
    for (double c : cost_j) cost.push_back(J(c));
    input.battery = J(battery_j);
    input.storage_cap = J(cap_j);
    input.w_u = w_u;
    input.w_b = w_b;
    input.harvest = harvest;
    input.tx_cost = cost;
    input.max_tx = J(1.0);
    input.utility = &utility;
  }
};

TEST(WindowSelector, ValidatesInput) {
  WindowSelector sel;
  Fixture f{{1.0}, {1.0}, 1.0, 10.0, 0.5};
  WindowSelectorInput bad = f.input;
  bad.harvest = {};
  bad.tx_cost = {};
  EXPECT_THROW((void)sel.select(bad), std::invalid_argument);
  bad = f.input;
  bad.utility = nullptr;
  EXPECT_THROW((void)sel.select(bad), std::invalid_argument);
  bad = f.input;
  bad.max_tx = J(0.0);
  EXPECT_THROW((void)sel.select(bad), std::invalid_argument);
  bad = f.input;
  bad.w_u = 1.5;
  EXPECT_THROW((void)sel.select(bad), std::invalid_argument);
  bad = f.input;
  bad.w_b = -0.5;
  EXPECT_THROW((void)sel.select(bad), std::invalid_argument);
}

TEST(WindowSelector, FreshBatteryPrefersFirstWindow) {
  // w_u = 0: DIF is irrelevant, utility dominates -> window 0 (paper:
  // "nodes with newer batteries ... prioritize utility").
  WindowSelector sel;
  Fixture f{{0.0, 1.0, 1.0, 1.0}, {1.0, 1.0, 1.0, 1.0}, 5.0, 10.0, 0.0};
  const WindowSelection out = sel.select(f.input);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.window, 0);
  EXPECT_DOUBLE_EQ(out.utility, 1.0);
}

TEST(WindowSelector, DegradedNodeWaitsForGreenEnergy) {
  // w_u = 1: window 0 has no harvest (DIF 1), window 1 is fully funded
  // (DIF 0). gamma_0 = 0 + 1*1 = 1; gamma_1 = 0.25 + 0 = 0.25 -> window 1.
  WindowSelector sel;
  Fixture f{{0.0, 2.0, 0.0, 0.0}, {1.0, 1.0, 1.0, 1.0}, 5.0, 10.0, 1.0};
  const WindowSelection out = sel.select(f.input);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.window, 1);
  EXPECT_DOUBLE_EQ(out.dif, 0.0);
  EXPECT_DOUBLE_EQ(out.gamma, 0.25);
}

TEST(WindowSelector, WbZeroDisablesDegradationTerm) {
  WindowSelector sel;
  Fixture f{{0.0, 2.0, 0.0, 0.0}, {1.0, 1.0, 1.0, 1.0}, 5.0, 10.0, 1.0, /*w_b=*/0.0};
  const WindowSelection out = sel.select(f.input);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.window, 0);  // pure utility again
}

TEST(WindowSelector, EnergyConstraintSkipsInfeasibleBest) {
  // Battery empty; window 0 has no harvest so it cannot fund the packet
  // even though its gamma is lowest; window 2 is the first feasible.
  WindowSelector sel;
  Fixture f{{0.0, 0.0, 5.0, 0.0}, {1.0, 1.0, 1.0, 1.0}, 0.0, 10.0, 0.0};
  const WindowSelection out = sel.select(f.input);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.window, 2);
}

TEST(WindowSelector, CumulativeEnergyCarriesOver) {
  // Harvest trickles in at 0.4 J per window; cost is 1 J. Energy
  // accumulates in the battery so window 2 (cumulative 1.2) is feasible.
  WindowSelector sel;
  Fixture f{{0.4, 0.4, 0.4, 0.4}, {1.0, 1.0, 1.0, 1.0}, 0.0, 10.0, 0.0};
  const WindowSelection out = sel.select(f.input);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.window, 2);
}

TEST(WindowSelector, StorageCapLimitsCarryOver) {
  // Same trickle but the theta cap is 0.5 J: the battery can never
  // accumulate the 1 J cost from carry-over alone -> FAIL.
  WindowSelector sel;
  Fixture f{{0.4, 0.4, 0.4, 0.4}, {1.0, 1.0, 1.0, 1.0}, 0.0, 0.5, 0.0};
  const WindowSelection out = sel.select(f.input);
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.window, -1);
}

TEST(WindowSelector, CapDoesNotBlockDirectHarvestUse) {
  // Harvest within the chosen window is usable directly even above the
  // cap: window 1 harvests 2 J which funds the 1 J cost despite cap 0.1.
  WindowSelector sel;
  Fixture f{{0.0, 2.0, 0.0}, {1.0, 1.0, 1.0}, 0.0, 0.1, 0.0};
  const WindowSelection out = sel.select(f.input);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.window, 1);
}

TEST(WindowSelector, AllWindowsInfeasibleFails) {
  WindowSelector sel;
  Fixture f{{0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}, 0.5, 10.0, 0.5};
  const WindowSelection out = sel.select(f.input);
  EXPECT_FALSE(out.success);
}

TEST(WindowSelector, ExactlyCostIsInfeasible) {
  // Constraint (20) is strict: E[t] - cost > 0.
  WindowSelector sel;
  Fixture f{{0.0}, {1.0}, 1.0, 10.0, 0.0};
  EXPECT_FALSE(sel.select(f.input).success);
}

TEST(WindowSelector, TieBreaksTowardEarlierWindow) {
  // Two identical fully-funded windows: stable sort keeps window order, so
  // the earlier (higher-utility, same gamma? no - utility differs) ...
  // Construct a true tie: w_u = 1, window 0 has DIF 0.25 and utility 1,
  // window 1 has DIF 0 and utility 0.75: gamma both 0.25.
  WindowSelector sel;
  Fixture f{{0.75, 1.0, 0.0, 0.0}, {1.0, 1.0, 1.0, 1.0}, 5.0, 10.0, 1.0};
  const WindowSelection out = sel.select(f.input);
  ASSERT_TRUE(out.success);
  EXPECT_DOUBLE_EQ(out.gamma, 0.25);
  EXPECT_EQ(out.window, 0);
}

TEST(WindowSelector, ObjectiveValuesMatchFormula) {
  WindowSelector sel;
  Fixture f{{0.0, 0.5, 1.0, 2.0}, {1.0, 1.0, 1.0, 1.0}, 5.0, 10.0, 0.8, 0.9};
  const auto gamma = sel.objective_values(f.input);
  ASSERT_EQ(gamma.size(), 4u);
  const LinearUtility u;
  for (int t = 0; t < 4; ++t) {
    const double dif = std::max(1.0 - f.harvest[static_cast<std::size_t>(t)].joules(), 0.0);
    EXPECT_NEAR(gamma[static_cast<std::size_t>(t)], (1.0 - u.value(t, 4)) + 0.8 * dif * 0.9,
                1e-12);
  }
}

TEST(WindowSelector, PicksGlobalGammaMinimumAmongFeasible) {
  WindowSelector sel;
  Fixture f{{0.0, 0.0, 3.0, 3.0}, {1.0, 1.0, 1.0, 1.0}, 10.0, 20.0, 1.0};
  const auto gamma = sel.objective_values(f.input);
  const WindowSelection out = sel.select(f.input);
  ASSERT_TRUE(out.success);
  for (std::size_t t = 0; t < gamma.size(); ++t) {
    EXPECT_LE(out.gamma, gamma[t] + 1e-12);
  }
}

// Property sweep across window counts: selection must always return either
// FAIL or a feasible window minimizing gamma among feasible windows.
class SelectorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SelectorPropertyTest, SelectionIsOptimalAmongFeasible) {
  const int n = GetParam();
  Rng rng{static_cast<std::uint64_t>(n) * 977 + 1};
  LinearUtility utility;
  WindowSelector sel;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Energy> harvest;
    std::vector<Energy> cost;
    for (int t = 0; t < n; ++t) {
      harvest.push_back(J(rng.uniform(0.0, 2.0)));
      cost.push_back(J(rng.uniform(0.2, 1.5)));
    }
    WindowSelectorInput input;
    input.battery = J(rng.uniform(0.0, 2.0));
    input.storage_cap = J(rng.uniform(0.5, 3.0));
    input.w_u = rng.uniform(0.0, 1.0);
    input.w_b = rng.uniform(0.0, 1.0);
    input.harvest = harvest;
    input.tx_cost = cost;
    input.max_tx = J(1.5);
    input.utility = &utility;

    const auto gamma = sel.objective_values(input);
    // Reference feasibility: replicate the cumulative-energy recurrence.
    std::vector<bool> feasible(static_cast<std::size_t>(n));
    Energy carried = std::min(input.battery, input.storage_cap);
    for (int t = 0; t < n; ++t) {
      const Energy avail = carried + harvest[static_cast<std::size_t>(t)];
      feasible[static_cast<std::size_t>(t)] = avail - cost[static_cast<std::size_t>(t)] > J(0.0);
      carried = std::min(avail, input.storage_cap);
    }

    const WindowSelection out = sel.select(input);
    bool any_feasible = false;
    double best_gamma = 1e300;
    for (int t = 0; t < n; ++t) {
      if (feasible[static_cast<std::size_t>(t)]) {
        any_feasible = true;
        best_gamma = std::min(best_gamma, gamma[static_cast<std::size_t>(t)]);
      }
    }
    ASSERT_EQ(out.success, any_feasible);
    if (out.success) {
      ASSERT_TRUE(feasible[static_cast<std::size_t>(out.window)]);
      EXPECT_NEAR(out.gamma, best_gamma, 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WindowCounts, SelectorPropertyTest,
                         ::testing::Values(1, 2, 5, 16, 38, 60));

// The workspace (allocation-free) overloads must agree exactly with the
// allocating API on randomized inputs — the hot path swaps one for the
// other and every committed CSV depends on them being interchangeable.
TEST(WindowSelector, WorkspaceMatchesAllocatingApiOnRandomInputs) {
  Rng rng{20250806};
  LinearUtility utility;
  WindowSelector sel;
  WindowSelector::Workspace ws;  // reused across trials, like a node does
  for (int trial = 0; trial < 500; ++trial) {
    const int n = rng.uniform_int(1, 60);
    std::vector<Energy> harvest;
    std::vector<Energy> cost;
    for (int t = 0; t < n; ++t) {
      harvest.push_back(J(rng.uniform(0.0, 2.0)));
      cost.push_back(J(rng.uniform(0.0, 1.5)));
    }
    WindowSelectorInput input;
    input.battery = J(rng.uniform(0.0, 2.0));
    input.storage_cap = J(rng.uniform(0.1, 3.0));
    input.w_u = rng.uniform(0.0, 1.0);
    input.w_b = rng.uniform(0.0, 1.0);
    input.harvest = harvest;
    input.tx_cost = cost;
    input.max_tx = J(rng.uniform(0.5, 2.0));
    input.utility = &utility;

    const WindowSelection heap = sel.select(input);
    const WindowSelection scratch = sel.select(input, ws);
    EXPECT_EQ(heap.success, scratch.success);
    EXPECT_EQ(heap.window, scratch.window);
    // Bit-identical, not just close: the workspace path must run the exact
    // same arithmetic.
    EXPECT_EQ(heap.gamma, scratch.gamma);
    EXPECT_EQ(heap.utility, scratch.utility);
    EXPECT_EQ(heap.dif, scratch.dif);

    const std::vector<double> heap_gamma = sel.objective_values(input);
    const std::span<const double> ws_gamma = sel.objective_values(input, ws);
    ASSERT_EQ(heap_gamma.size(), ws_gamma.size());
    for (std::size_t t = 0; t < heap_gamma.size(); ++t) {
      EXPECT_EQ(heap_gamma[t], ws_gamma[t]);
    }
  }
}

// The workspace's utility table must hold exactly 1 - mu(t, n), whichever
// utility and window count came before: the objective scan reads it in place
// of calling the utility per window.
TEST(WindowSelector, UtilityTableHoldsOneMinusMu) {
  const LinearUtility linear;
  const ExponentialUtility exponential{3.0};
  const StepUtility step{0.3, 0.1};
  WindowSelector::Workspace ws;
  for (int round = 0; round < 2; ++round) {
    for (const UtilityFunction* u : {static_cast<const UtilityFunction*>(&linear),
                                     static_cast<const UtilityFunction*>(&exponential),
                                     static_cast<const UtilityFunction*>(&step)}) {
      for (const int n : {60, 1, 16, 17}) {
        const std::span<const double> row = ws.utility_loss(*u, n);
        ASSERT_EQ(row.size(), static_cast<std::size_t>(n));
        for (int t = 0; t < n; ++t) {
          EXPECT_EQ(row[static_cast<std::size_t>(t)], 1.0 - u->value(t, n));
        }
      }
    }
  }
}

}  // namespace
}  // namespace blam
