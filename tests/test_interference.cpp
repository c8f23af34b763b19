#include "lora/interference.hpp"

#include <gtest/gtest.h>

namespace blam {
namespace {

AirPacket packet(std::uint64_t id, double start_s, double dur_s, double power_dbm,
                 SpreadingFactor sf = SpreadingFactor::kSF10, int channel = 0) {
  AirPacket p;
  p.id = id;
  p.start = Time::from_seconds(start_s);
  p.end = Time::from_seconds(start_s + dur_s);
  p.rx_power_dbm = power_dbm;
  p.sf = sf;
  p.channel = channel;
  return p;
}

TEST(IsolationMatrix, DiagonalRequiresCaptureMargin) {
  for (SpreadingFactor sf : kAllSpreadingFactors) {
    EXPECT_DOUBLE_EQ(sir_isolation_db(sf, sf), 6.0);
  }
}

TEST(IsolationMatrix, OffDiagonalToleratesInterference) {
  EXPECT_LT(sir_isolation_db(SpreadingFactor::kSF7, SpreadingFactor::kSF12), 0.0);
  EXPECT_DOUBLE_EQ(sir_isolation_db(SpreadingFactor::kSF7, SpreadingFactor::kSF8), -16.0);
  EXPECT_DOUBLE_EQ(sir_isolation_db(SpreadingFactor::kSF12, SpreadingFactor::kSF7), -36.0);
}

TEST(Interference, LonePacketSurvives) {
  InterferenceTracker tracker;
  const AirPacket p = packet(1, 0.0, 0.3, -100.0);
  tracker.add(p);
  EXPECT_TRUE(tracker.survives(p));
}

TEST(Interference, EqualPowerCoSfCollisionDestroysBoth) {
  InterferenceTracker tracker;
  const AirPacket a = packet(1, 0.0, 0.3, -100.0);
  const AirPacket b = packet(2, 0.1, 0.3, -100.0);
  tracker.add(a);
  tracker.add(b);
  // Full-ish overlap at equal power: neither clears the +6 dB margin.
  EXPECT_FALSE(tracker.survives(a));
  EXPECT_FALSE(tracker.survives(b));
}

TEST(Interference, StrongPacketCapturesOverWeak) {
  InterferenceTracker tracker;
  const AirPacket strong = packet(1, 0.0, 0.3, -90.0);
  const AirPacket weak = packet(2, 0.0, 0.3, -110.0);
  tracker.add(strong);
  tracker.add(weak);
  EXPECT_TRUE(tracker.survives(strong));   // 20 dB above the interferer
  EXPECT_FALSE(tracker.survives(weak));
}

TEST(Interference, DifferentChannelsDoNotInteract) {
  InterferenceTracker tracker;
  const AirPacket a = packet(1, 0.0, 0.3, -100.0, SpreadingFactor::kSF10, 0);
  const AirPacket b = packet(2, 0.0, 0.3, -100.0, SpreadingFactor::kSF10, 1);
  tracker.add(a);
  tracker.add(b);
  EXPECT_TRUE(tracker.survives(a));
  EXPECT_TRUE(tracker.survives(b));
}

TEST(Interference, NonOverlappingInTimeDoNotInteract) {
  InterferenceTracker tracker;
  const AirPacket a = packet(1, 0.0, 0.3, -100.0);
  const AirPacket b = packet(2, 0.3, 0.3, -100.0);  // back-to-back, no overlap
  tracker.add(a);
  tracker.add(b);
  EXPECT_TRUE(tracker.survives(a));
  EXPECT_TRUE(tracker.survives(b));
}

TEST(Interference, CrossSfQuasiOrthogonality) {
  InterferenceTracker tracker;
  // SF10 signal with an equal-power SF7 interferer: isolation -30 dB, so the
  // SF10 packet survives easily; the SF7 packet (isolation -19 vs SF10 at
  // 0 dB SIR) also survives.
  const AirPacket sf10 = packet(1, 0.0, 0.3, -100.0, SpreadingFactor::kSF10);
  const AirPacket sf7 = packet(2, 0.0, 0.1, -100.0, SpreadingFactor::kSF7);
  tracker.add(sf10);
  tracker.add(sf7);
  EXPECT_TRUE(tracker.survives(sf10));
  EXPECT_TRUE(tracker.survives(sf7));
}

TEST(Interference, CrossSfStrongInterfererStillKills) {
  InterferenceTracker tracker;
  // SF10 signal, SF7 interferer 35 dB stronger with full overlap: below the
  // -30 dB isolation -> destroyed.
  const AirPacket sf10 = packet(1, 0.0, 0.3, -120.0, SpreadingFactor::kSF10);
  const AirPacket sf7 = packet(2, 0.0, 0.3, -85.0, SpreadingFactor::kSF7);
  tracker.add(sf10);
  tracker.add(sf7);
  EXPECT_FALSE(tracker.survives(sf10));
}

TEST(Interference, ShortOverlapIntegratesEnergy) {
  InterferenceTracker tracker;
  // Interferer overlaps only 1% of the signal: energy ratio gives ~+20 dB
  // SIR even at equal power -> survives the +6 dB co-SF margin.
  const AirPacket sig = packet(1, 0.0, 1.0, -100.0);
  const AirPacket jam = packet(2, 0.99, 1.0, -100.0);
  tracker.add(sig);
  tracker.add(jam);
  EXPECT_TRUE(tracker.survives(sig));
  // The jammer loses 1% of its energy to the signal but survives too.
  EXPECT_TRUE(tracker.survives(jam));
}

TEST(Interference, MultipleWeakInterferersAccumulate) {
  InterferenceTracker tracker;
  const AirPacket sig = packet(1, 0.0, 1.0, -100.0);
  tracker.add(sig);
  // Each interferer alone is 8 dB down (survivable: SIR 8 > 6); five of them
  // push cumulative interference above the margin.
  for (std::uint64_t i = 2; i <= 6; ++i) {
    tracker.add(packet(i, 0.0, 1.0, -108.0));
  }
  EXPECT_FALSE(tracker.survives(sig));
}

TEST(Interference, PruneDropsOldPackets) {
  InterferenceTracker tracker;
  for (int i = 0; i < 100; ++i) {
    tracker.add(packet(static_cast<std::uint64_t>(i) + 1, i * 1.0, 0.3, -100.0));
  }
  EXPECT_EQ(tracker.live().size(), 100u);
  tracker.prune(Time::from_seconds(100.0));
  EXPECT_LT(tracker.live().size(), 10u);
}

TEST(Interference, PruneKeepsRecentPackets) {
  InterferenceTracker tracker;
  const AirPacket sig = packet(1, 100.0, 1.0, -100.0);
  const AirPacket jam = packet(2, 100.0, 1.0, -100.0);
  tracker.add(sig);
  tracker.add(jam);
  tracker.prune(Time::from_seconds(101.0));
  EXPECT_FALSE(tracker.survives(sig));  // interferer still tracked
}

}  // namespace
}  // namespace blam
