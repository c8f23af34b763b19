#include "lora/link.hpp"

#include <gtest/gtest.h>

namespace blam {
namespace {

TEST(Position, Distance) {
  const Position a{0.0, 0.0};
  const Position b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.distance_to(b), 5.0);
  EXPECT_DOUBLE_EQ(b.distance_to(a), 5.0);
  EXPECT_DOUBLE_EQ(a.distance_to(a), 0.0);
}

TEST(PathLoss, ReferencePointAndSlope) {
  PathLossModel model;  // defaults: 7.7 dB at 1 m, exponent 3.76
  EXPECT_DOUBLE_EQ(model.path_loss_db(1.0), 7.7);
  // One decade adds 10 * 3.76 dB.
  EXPECT_NEAR(model.path_loss_db(10.0) - model.path_loss_db(1.0), 37.6, 1e-9);
  EXPECT_NEAR(model.path_loss_db(100.0) - model.path_loss_db(10.0), 37.6, 1e-9);
}

TEST(PathLoss, ClampsBelowReferenceDistance) {
  PathLossModel model;
  EXPECT_DOUBLE_EQ(model.path_loss_db(0.1), model.path_loss_db(1.0));
  EXPECT_DOUBLE_EQ(model.path_loss_db(0.0), 7.7);
}

TEST(Link, NoShadowingIsDeterministic) {
  PathLossModel model;
  Rng rng{1};
  const Link link{Position{3000.0, 4000.0}, Position{0.0, 0.0}, model, rng};
  EXPECT_NEAR(link.total_loss_db(), model.path_loss_db(5000.0), 1e-12);
}

TEST(Link, ShadowingVariesAcrossLinks) {
  PathLossModel model;
  model.shadowing_sigma_db = 8.0;
  Rng rng{7};
  const Position gw{0.0, 0.0};
  const Position dev{1000.0, 0.0};
  const Link a{dev, gw, model, rng};
  const Link b{dev, gw, model, rng};
  EXPECT_NE(a.total_loss_db(), b.total_loss_db());
}

// min_spreading_factor is the SF rule plan_deployment assigns with; the
// SF12 fallback for nodes it returns nullopt for is checked on the planner
// (MultiGateway.DistanceSfFallsBackToSf12WhenNothingCloses).
TEST(Link, MinSfPicksSmallestThatCloses) {
  PathLossModel model;
  Rng rng{1};
  // Close node: SF7 closes easily.
  const Link near{Position{100.0, 0.0}, Position{0.0, 0.0}, model, rng};
  EXPECT_EQ(min_spreading_factor(14.0 - near.total_loss_db()), SpreadingFactor::kSF7);

  // 5 km, exponent 3.76: loss ~146.6 dB, rx ~-132.6 dBm, past SF7's reach.
  const Link far{Position{5000.0, 0.0}, Position{0.0, 0.0}, model, rng};
  const double rx = 14.0 - far.total_loss_db();
  const auto sf = min_spreading_factor(rx);
  ASSERT_TRUE(sf.has_value());
  EXPECT_GT(sf_value(*sf), sf_value(SpreadingFactor::kSF7));
  // The chosen SF actually closes the link ...
  EXPECT_GE(rx, gateway_sensitivity_dbm(*sf));
  // ... and the next lower SF does not.
  if (*sf != SpreadingFactor::kSF7) {
    const auto lower = sf_from_value(sf_value(*sf) - 1);
    EXPECT_LT(rx, gateway_sensitivity_dbm(lower));
  }

  // A sensitivity is inclusive: an uplink exactly at it closes that SF, and
  // one a hair below needs the next.
  for (SpreadingFactor s : kAllSpreadingFactors) {
    EXPECT_EQ(min_spreading_factor(gateway_sensitivity_dbm(s)), s);
  }
  EXPECT_EQ(min_spreading_factor(gateway_sensitivity_dbm(SpreadingFactor::kSF9) - 1e-9),
            SpreadingFactor::kSF10);
}

TEST(Link, MinSfRespectsMargin) {
  // Demanding a 10 dB margin is asking the rule about an uplink 10 dB
  // weaker: it can only need the same SF or a larger one.
  PathLossModel model;
  Rng rng{1};
  const Link link{Position{4000.0, 0.0}, Position{0.0, 0.0}, model, rng};
  const double rx = 14.0 - link.total_loss_db();
  const auto no_margin = min_spreading_factor(rx);
  const auto with_margin = min_spreading_factor(rx - 10.0);
  ASSERT_TRUE(no_margin.has_value());
  ASSERT_TRUE(with_margin.has_value());
  EXPECT_GE(sf_value(*with_margin), sf_value(*no_margin));
}

TEST(Link, ImpossibleLinkReturnsNullopt) {
  PathLossModel model;
  Rng rng{1};
  const Link link{Position{500000.0, 0.0}, Position{0.0, 0.0}, model, rng};  // 500 km
  EXPECT_FALSE(min_spreading_factor(14.0 - link.total_loss_db()).has_value());
  EXPECT_FALSE(
      min_spreading_factor(gateway_sensitivity_dbm(SpreadingFactor::kSF12) - 1e-9).has_value());
}

}  // namespace
}  // namespace blam
