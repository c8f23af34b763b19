#include "lora/channel_plan.hpp"

#include <gtest/gtest.h>

#include <set>

namespace blam {
namespace {

TEST(ChannelPlan, RejectsBadCounts) {
  EXPECT_THROW(ChannelPlan(0, 8), std::invalid_argument);
  EXPECT_THROW(ChannelPlan(65, 8), std::invalid_argument);
  EXPECT_THROW(ChannelPlan(8, 0), std::invalid_argument);
  EXPECT_THROW(ChannelPlan(8, 9), std::invalid_argument);
}

TEST(ChannelPlan, RandomHopCoversAllUplinks) {
  ChannelPlan plan{8, 8};
  Rng rng{5};
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int ch = plan.random_uplink_channel(rng);
    EXPECT_GE(ch, 0);
    EXPECT_LT(ch, 8);
    seen.insert(ch);
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(ChannelPlan, Rx1MappingIsUplinkModDownlink) {
  ChannelPlan plan{16, 8};
  EXPECT_EQ(plan.rx1_channel(0), 16);
  EXPECT_EQ(plan.rx1_channel(7), 23);
  EXPECT_EQ(plan.rx1_channel(8), 16);
  EXPECT_EQ(plan.rx1_channel(15), 23);
  EXPECT_THROW((void)plan.rx1_channel(16), std::invalid_argument);
  EXPECT_THROW((void)plan.rx1_channel(-1), std::invalid_argument);
}

TEST(ChannelPlan, DownlinkChannelsAreDisjointFromUplink) {
  // Channels [0, 8) are uplink; the downlink channels follow them.
  ChannelPlan plan{8, 8};
  Rng rng{5};
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(plan.random_uplink_channel(rng), 8);
  }
  for (int up = 0; up < 8; ++up) {
    EXPECT_GE(plan.rx1_channel(up), 8);
  }
  EXPECT_GE(plan.rx2_channel(), 8);
}

TEST(ChannelPlan, Rx2Parameters) {
  ChannelPlan plan{8, 8};
  EXPECT_EQ(plan.rx2_spreading_factor(), SpreadingFactor::kSF12);
  EXPECT_DOUBLE_EQ(plan.rx2_bandwidth_hz(), 500e3);
}

}  // namespace
}  // namespace blam
