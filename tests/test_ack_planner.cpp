#include "mac/gateway_mac.hpp"

#include <gtest/gtest.h>

namespace blam {
namespace {

class AckPlannerTest : public ::testing::Test {
 protected:
  AckPlannerTest() : plan_{8, 8}, planner_{plan_, 500e3} {}

  ChannelPlan plan_;
  AckPlanner planner_;
};

TEST_F(AckPlannerTest, FirstAckLandsInRx1) {
  const Time uplink_end = Time::from_seconds(10.0);
  const auto ack = planner_.plan(uplink_end, SpreadingFactor::kSF10, 3, 1);
  ASSERT_TRUE(ack.has_value());
  EXPECT_FALSE(ack->rx2);
  EXPECT_EQ(ack->tx_start, uplink_end + kRx1Delay);
  EXPECT_EQ(ack->sf, SpreadingFactor::kSF10);
  EXPECT_EQ(ack->channel, plan_.rx1_channel(3));
  EXPECT_GT(ack->tx_end, ack->tx_start);
}

TEST_F(AckPlannerTest, ConflictFallsBackToRx2) {
  const Time end_a = Time::from_seconds(10.0);
  const auto a = planner_.plan(end_a, SpreadingFactor::kSF12, 0, 1);
  ASSERT_TRUE(a.has_value());
  ASSERT_FALSE(a->rx2);
  // A second uplink ending such that its RX1 slot overlaps A's reservation.
  const Time end_b = end_a + Time::from_ms(50);
  const auto b = planner_.plan(end_b, SpreadingFactor::kSF12, 1, 1);
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(b->rx2);
  EXPECT_EQ(b->tx_start, end_b + kRx2Delay);
  EXPECT_EQ(b->sf, plan_.rx2_spreading_factor());
}

TEST_F(AckPlannerTest, BothSlotsBusyFails) {
  // Saturate: many uplinks ending at nearly the same time. SF12 ACKs at
  // 500 kHz are ~0.2 s, so a handful of overlapping requests exhausts both
  // RX1 and RX2 slots for some requester.
  int failures = 0;
  for (int i = 0; i < 20; ++i) {
    const Time end = Time::from_seconds(10.0) + Time::from_ms(5 * i);
    if (!planner_.plan(end, SpreadingFactor::kSF12, i % 8, 1).has_value()) ++failures;
  }
  EXPECT_GT(failures, 0);
}

TEST_F(AckPlannerTest, OverlapsTxDetectsReservations) {
  const Time end = Time::from_seconds(10.0);
  const auto ack = planner_.plan(end, SpreadingFactor::kSF10, 0, 1);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(planner_.overlaps_tx(ack->tx_start, ack->tx_end));
  EXPECT_TRUE(
      planner_.overlaps_tx(ack->tx_start - Time::from_ms(10), ack->tx_start + Time::from_ms(1)));
  EXPECT_FALSE(planner_.overlaps_tx(ack->tx_end, ack->tx_end + Time::from_seconds(1.0)));
  EXPECT_FALSE(planner_.overlaps_tx(Time::zero(), Time::from_seconds(1.0)));
}

TEST_F(AckPlannerTest, PruneDropsOldReservations) {
  for (int i = 0; i < 10; ++i) {
    (void)planner_.plan(Time::from_seconds(10.0 * i), SpreadingFactor::kSF7, 0, 1);
  }
  EXPECT_EQ(planner_.reservations(), 10u);
  planner_.prune(Time::from_seconds(1000.0));
  EXPECT_EQ(planner_.reservations(), 0u);
}

TEST_F(AckPlannerTest, SequentialUplinksBothGetRx1) {
  // Far-apart uplinks never conflict.
  const auto a = planner_.plan(Time::from_seconds(10.0), SpreadingFactor::kSF10, 0, 1);
  const auto b = planner_.plan(Time::from_seconds(20.0), SpreadingFactor::kSF10, 1, 1);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(a->rx2);
  EXPECT_FALSE(b->rx2);
}

TEST(AckPlannerBandwidth, NarrowRx1MakesLongAcks) {
  ChannelPlan plan{8, 8};
  AckPlanner wide{plan, 500e3};
  AckPlanner narrow{plan, 125e3};
  const auto a = wide.plan(Time::from_seconds(1.0), SpreadingFactor::kSF10, 0, 1);
  const auto b = narrow.plan(Time::from_seconds(1.0), SpreadingFactor::kSF10, 0, 1);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NEAR((b->tx_end - b->tx_start).seconds(), 4.0 * (a->tx_end - a->tx_start).seconds(),
              1e-9);
}

}  // namespace
}  // namespace blam
