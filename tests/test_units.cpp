#include "common/units.hpp"

#include <gtest/gtest.h>

namespace blam {
namespace {

TEST(Time, ConversionsRoundTrip) {
  EXPECT_EQ(Time::from_seconds(1.0).us(), 1'000'000);
  EXPECT_EQ(Time::from_ms(5).us(), 5'000);
  EXPECT_EQ(Time::from_minutes(1.0).us(), 60'000'000);
  EXPECT_DOUBLE_EQ(Time::from_hours(2.0).hours(), 2.0);
  EXPECT_DOUBLE_EQ(Time::from_days(3.0).days(), 3.0);
}

TEST(Time, Arithmetic) {
  const Time a = Time::from_seconds(10.0);
  const Time b = Time::from_seconds(4.0);
  EXPECT_EQ((a + b).seconds(), 14.0);
  EXPECT_EQ((a - b).seconds(), 6.0);
  EXPECT_EQ((a * 3).seconds(), 30.0);
  EXPECT_EQ(a / b, 2);  // integer division
  EXPECT_EQ((a % b).seconds(), 2.0);
}

TEST(Time, FractionalScaling) {
  const Time a = Time::from_seconds(10.0);
  EXPECT_NEAR((a * 0.25).seconds(), 2.5, 1e-9);
}

TEST(Time, Ordering) {
  EXPECT_LT(Time::from_ms(1), Time::from_ms(2));
  EXPECT_EQ(Time::from_seconds(1.0), Time::from_ms(1000));
  EXPECT_GT(Time::max(), Time::from_days(100000.0));
}

TEST(Time, CompoundAssignment) {
  Time t = Time::from_seconds(1.0);
  t += Time::from_seconds(2.0);
  EXPECT_EQ(t.seconds(), 3.0);
  t -= Time::from_seconds(0.5);
  EXPECT_EQ(t.seconds(), 2.5);
}

TEST(Energy, BasicArithmetic) {
  const Energy a = Energy::from_joules(2.0);
  const Energy b = Energy::from_joules(0.5);
  EXPECT_DOUBLE_EQ((a + b).joules(), 2.5);
  EXPECT_DOUBLE_EQ((a - b).joules(), 1.5);
  EXPECT_DOUBLE_EQ((a * 2.0).joules(), 4.0);
  EXPECT_DOUBLE_EQ(a / b, 4.0);
}

TEST(Power, TimesTimeGivesEnergy) {
  const Energy e = Power::from_milli_watts(100.0) * Time::from_seconds(10.0);
  EXPECT_DOUBLE_EQ(e.joules(), 1.0);
  EXPECT_DOUBLE_EQ((Time::from_seconds(10.0) * Power::from_milli_watts(100.0)).joules(), 1.0);
}

TEST(Power, EnergyOverTimeGivesPower) {
  const Power p = Energy::from_joules(5.0) / Time::from_seconds(10.0);
  EXPECT_DOUBLE_EQ(p.watts(), 0.5);
}

TEST(Power, EnergyOverPowerGivesTime) {
  const Time t = Energy::from_joules(5.0) / Power::from_watts(0.5);
  EXPECT_DOUBLE_EQ(t.seconds(), 10.0);
}

TEST(Decibels, RoundTrips) {
  EXPECT_NEAR(dbm_to_watts(0.0), 1e-3, 1e-12);
  EXPECT_NEAR(dbm_to_watts(30.0), 1.0, 1e-12);
  // +3 dB is a factor of 1.995 at any level.
  EXPECT_NEAR(dbm_to_watts(-14.3) / dbm_to_watts(-17.3), 1.995, 1e-3);
}

TEST(Units, ToStringPicksSensibleScale) {
  EXPECT_EQ(Time::from_seconds(0.5).to_string(), "500.000 ms");
  EXPECT_EQ(Time::from_minutes(30.0).to_string(), "30.00 min");
  EXPECT_EQ(Energy::from_joules(0.25).to_string(), "250.000 mJ");
  EXPECT_EQ(Power::from_watts(2.0).to_string(), "2.000 W");
}

}  // namespace
}  // namespace blam
