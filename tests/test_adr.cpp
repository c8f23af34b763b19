#include "mac/adr.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace blam {
namespace {

AdrController controller(int min_history = 3) {
  AdrController::Config c;
  c.history = 10;
  c.min_history = min_history;
  return AdrController{c, {1, 2}};
}

TEST(AdrBasics, RequiredSnrMonotoneInSf) {
  double prev = 0.0;
  for (SpreadingFactor sf : kAllSpreadingFactors) {
    EXPECT_LT(required_snr_db(sf), prev);
    prev = required_snr_db(sf);
  }
  EXPECT_DOUBLE_EQ(required_snr_db(SpreadingFactor::kSF7), -7.5);
  EXPECT_DOUBLE_EQ(required_snr_db(SpreadingFactor::kSF12), -20.0);
}

TEST(AdrBasics, NoiseFloor) {
  // -174 + 10 log10(125e3) + 6 = -117.03 dBm.
  EXPECT_NEAR(noise_floor_dbm(125e3), -117.03, 0.01);
  EXPECT_NEAR(noise_floor_dbm(500e3), -111.01, 0.01);
  EXPECT_THROW((void)noise_floor_dbm(0.0), std::invalid_argument);
}

TEST(AdrController, ValidatesConfig) {
  AdrController::Config c;
  c.history = 0;
  EXPECT_THROW((AdrController{c, {}}), std::invalid_argument);
  c = AdrController::Config{};
  c.min_history = c.history + 1;
  EXPECT_THROW((AdrController{c, {}}), std::invalid_argument);
  c = AdrController::Config{};
  c.min_tx_power_dbm = kDeviceTxPowerDbm + 2.0;  // floor above the fixed ceiling
  EXPECT_THROW((AdrController{c, {}}), std::invalid_argument);
}

TEST(AdrController, SilentUntilEnoughHistory) {
  AdrController adr = controller(/*min_history=*/5);
  const AdrCommand current{SpreadingFactor::kSF12, 14.0};
  for (int i = 0; i < 4; ++i) {
    adr.observe(1, 10.0);
    EXPECT_FALSE(adr.advise(1, current).has_value()) << i;
  }
  adr.observe(1, 10.0);
  EXPECT_TRUE(adr.advise(1, current).has_value());
}

TEST(AdrController, UnknownNodeGetsNoAdvice) {
  const AdrController adr = controller();
  EXPECT_FALSE(adr.advise(99, AdrCommand{}).has_value());
}

TEST(AdrController, StrongLinkStepsSfDownThenPower) {
  AdrController adr = controller();
  // SNR 20 dB at SF12 (floor -20, margin 10): spare = 20 + 20 - 10 = 30 dB
  // -> 10 steps: SF12 -> SF7 (5 steps), then 5 * 2 dB off the TX power.
  for (int i = 0; i < 5; ++i) adr.observe(1, 20.0);
  const auto cmd = adr.advise(1, AdrCommand{SpreadingFactor::kSF12, 14.0});
  ASSERT_TRUE(cmd.has_value());
  EXPECT_EQ(cmd->sf, SpreadingFactor::kSF7);
  EXPECT_DOUBLE_EQ(cmd->tx_power_dbm, 4.0);
}

TEST(AdrController, PowerNeverBelowMinimum) {
  AdrController adr = controller();
  for (int i = 0; i < 5; ++i) adr.observe(1, 60.0);  // absurdly strong
  const auto cmd = adr.advise(1, AdrCommand{SpreadingFactor::kSF7, 14.0});
  ASSERT_TRUE(cmd.has_value());
  EXPECT_EQ(cmd->sf, SpreadingFactor::kSF7);
  EXPECT_GE(cmd->tx_power_dbm, 2.0);
}

TEST(AdrController, MarginalLinkUnchanged) {
  AdrController adr = controller();
  // Exactly at floor + margin: zero spare steps.
  for (int i = 0; i < 5; ++i) adr.observe(1, required_snr_db(SpreadingFactor::kSF10) + 10.0);
  EXPECT_FALSE(adr.advise(1, AdrCommand{SpreadingFactor::kSF10, 14.0}).has_value());
}

TEST(AdrController, WeakLinkRaisesPowerNotSf) {
  AdrController adr = controller();
  // 9 dB short of the SF10 target: power climbs back toward max.
  for (int i = 0; i < 5; ++i) adr.observe(1, required_snr_db(SpreadingFactor::kSF10) + 1.0);
  const auto cmd = adr.advise(1, AdrCommand{SpreadingFactor::kSF10, 6.0});
  ASSERT_TRUE(cmd.has_value());
  EXPECT_EQ(cmd->sf, SpreadingFactor::kSF10);
  EXPECT_GT(cmd->tx_power_dbm, 6.0);
  EXPECT_LE(cmd->tx_power_dbm, 14.0);
}

TEST(AdrController, UsesMaxSnrOfHistory) {
  AdrController adr = controller();
  // One good probe among bad ones drives the decision (standard ADR).
  adr.observe(1, -18.0);
  adr.observe(1, -18.0);
  adr.observe(1, 15.0);
  adr.observe(1, -18.0);
  adr.observe(1, -18.0);
  const auto cmd = adr.advise(1, AdrCommand{SpreadingFactor::kSF12, 14.0});
  ASSERT_TRUE(cmd.has_value());
  EXPECT_LT(sf_value(cmd->sf), 12);
}

TEST(AdrController, HistoryIsBounded) {
  AdrController adr = controller();
  // Flood with strong samples, then with weak ones: the strong ones age out
  // of the 10-deep window and stop influencing advice.
  for (int i = 0; i < 10; ++i) adr.observe(1, 20.0);
  for (int i = 0; i < 10; ++i) adr.observe(1, required_snr_db(SpreadingFactor::kSF12) + 10.0);
  EXPECT_FALSE(adr.advise(1, AdrCommand{SpreadingFactor::kSF12, 14.0}).has_value());
}

TEST(AdrController, NodesAreIndependent) {
  AdrController adr = controller();
  for (int i = 0; i < 5; ++i) adr.observe(1, 20.0);
  EXPECT_TRUE(adr.advise(1, AdrCommand{SpreadingFactor::kSF12, 14.0}).has_value());
  EXPECT_FALSE(adr.advise(2, AdrCommand{SpreadingFactor::kSF12, 14.0}).has_value());
}

TEST(AdrController, SnapshotKeepsTheNewestHistoryOldestFirst) {
  AdrController adr = controller();  // history 10, nodes 1 and 2
  for (int i = 0; i < 15; ++i) adr.observe(1, static_cast<double>(i));
  const auto snap = adr.snapshot();
  ASSERT_EQ(snap.size(), 1u);  // node 2 has no history
  EXPECT_EQ(snap[0].node_id, 1u);
  EXPECT_EQ(snap[0].snr_db, (std::vector<double>{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}));
  EXPECT_THROW(adr.observe(3, 0.0), std::out_of_range);

  AdrController restored = controller();
  restored.restore(snap);
  restored.observe(1, 15.0);
  adr.observe(1, 15.0);
  EXPECT_EQ(restored.snapshot()[0].snr_db, adr.snapshot()[0].snr_db);
}

TEST(AdrController, RestoreRefusesForeignNodesAndOverlongHistory) {
  AdrController adr = controller();
  EXPECT_THROW(adr.restore({{7, {1.0}}}), std::runtime_error);
  EXPECT_THROW(adr.restore({{1, std::vector<double>(11, 1.0)}}), std::runtime_error);
}

}  // namespace
}  // namespace blam
