#include "energy/supercap.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "energy/power_switch.hpp"

namespace blam {
namespace {

Energy J(double j) { return Energy::from_joules(j); }

TEST(Supercap, ValidatesConstruction) {
  EXPECT_THROW(Supercap(J(0.0)), std::invalid_argument);
  EXPECT_THROW(Supercap(J(1.0), 0.0), std::invalid_argument);
  EXPECT_THROW(Supercap(J(1.0), 1.1), std::invalid_argument);
  EXPECT_THROW(Supercap(J(1.0), 0.9, 1.0), std::invalid_argument);
  EXPECT_THROW(Supercap(J(1.0), 0.9, -0.1), std::invalid_argument);
}

TEST(Supercap, ChargeWithEfficiencyLoss) {
  Supercap cap{J(10.0), /*efficiency=*/0.8, /*leak=*/0.0};
  const Energy consumed = cap.charge(J(5.0));
  EXPECT_DOUBLE_EQ(consumed.joules(), 5.0);
  EXPECT_DOUBLE_EQ(cap.stored().joules(), 4.0);  // 80% of 5 J
}

TEST(Supercap, ChargeStopsAtCapacity) {
  Supercap cap{J(4.0), 0.8, 0.0};
  // To store 4 J at 80% efficiency it can consume 5 J at most.
  EXPECT_DOUBLE_EQ(cap.charge(J(100.0)).joules(), 5.0);
  EXPECT_DOUBLE_EQ(cap.stored().joules(), cap.capacity().joules());
  EXPECT_DOUBLE_EQ(cap.charge(J(1.0)).joules(), 0.0);
}

TEST(Supercap, DischargeBoundedByStored) {
  Supercap cap{J(10.0), 1.0, 0.0};
  cap.charge(J(3.0));
  EXPECT_DOUBLE_EQ(cap.discharge(J(2.0)).joules(), 2.0);
  EXPECT_DOUBLE_EQ(cap.discharge(J(2.0)).joules(), 1.0);
  EXPECT_DOUBLE_EQ(cap.stored().joules(), 0.0);
}

TEST(Supercap, LeakIsExponential) {
  Supercap cap{J(10.0), 1.0, /*leak_per_day=*/0.5};
  cap.charge(J(8.0));
  cap.leak(Time::from_days(1.0));
  EXPECT_NEAR(cap.stored().joules(), 4.0, 1e-9);
  cap.leak(Time::from_days(2.0));
  EXPECT_NEAR(cap.stored().joules(), 1.0, 1e-9);
  // Half-day leak is sqrt of the daily retention.
  Supercap cap2{J(10.0), 1.0, 0.5};
  cap2.charge(J(8.0));
  cap2.leak(Time::from_hours(12.0));
  EXPECT_NEAR(cap2.stored().joules(), 8.0 * std::sqrt(0.5), 1e-9);
}

TEST(Supercap, NoLeakConfigured) {
  Supercap cap{J(10.0), 1.0, 0.0};
  cap.charge(J(5.0));
  cap.leak(Time::from_days(100.0));
  EXPECT_DOUBLE_EQ(cap.stored().joules(), 5.0);
}

TEST(Supercap, NegativeInputsRejected) {
  Supercap cap{J(10.0)};
  EXPECT_THROW(cap.charge(J(-1.0)), std::invalid_argument);
  EXPECT_THROW(cap.discharge(J(-1.0)), std::invalid_argument);
  EXPECT_THROW(cap.leak(Time::from_seconds(-1.0)), std::invalid_argument);
}

TEST(HybridStorage, SurplusFillsCapBeforeBattery) {
  Battery battery{J(100.0), 0.2};
  Supercap cap{J(5.0), 1.0, 0.0};
  PowerSwitch sw{battery, 1.0};
  sw.attach_supercap(&cap);
  const PowerFlow flow = sw.apply(J(12.0), J(0.0));
  EXPECT_DOUBLE_EQ(cap.stored().joules(), 5.0);
  EXPECT_DOUBLE_EQ(battery.stored().joules(), 27.0);  // 20 + remaining 7
  EXPECT_DOUBLE_EQ(flow.charged.joules(), 12.0);
}

TEST(HybridStorage, DeficitDrainsCapBeforeBattery) {
  Battery battery{J(100.0), 0.5};
  Supercap cap{J(5.0), 1.0, 0.0};
  cap.charge(J(5.0));
  PowerSwitch sw{battery, 1.0};
  sw.attach_supercap(&cap);
  const PowerFlow flow = sw.apply(J(0.0), J(3.0));
  EXPECT_DOUBLE_EQ(cap.stored().joules(), 2.0);
  EXPECT_DOUBLE_EQ(battery.stored().joules(), 50.0);  // untouched
  EXPECT_DOUBLE_EQ(flow.from_battery.joules(), 3.0);  // "from storage"
  EXPECT_FALSE(flow.brownout());
}

TEST(HybridStorage, BatteryCoversWhatCapCannot) {
  Battery battery{J(100.0), 0.5};
  Supercap cap{J(5.0), 1.0, 0.0};
  cap.charge(J(2.0));
  PowerSwitch sw{battery, 1.0};
  sw.attach_supercap(&cap);
  const PowerFlow flow = sw.apply(J(0.0), J(10.0));
  EXPECT_DOUBLE_EQ(cap.stored().joules(), 0.0);
  EXPECT_DOUBLE_EQ(battery.stored().joules(), 42.0);
  EXPECT_FALSE(flow.brownout());
}

TEST(HybridStorage, ThetaStillCapsTheBattery) {
  Battery battery{J(100.0), 0.45};
  Supercap cap{J(5.0), 1.0, 0.0};
  PowerSwitch sw{battery, 0.5};
  sw.attach_supercap(&cap);
  const PowerFlow flow = sw.apply(J(20.0), J(0.0));
  EXPECT_DOUBLE_EQ(cap.stored().joules(), 5.0);
  EXPECT_DOUBLE_EQ(battery.soc(), 0.5);  // theta cap holds
  EXPECT_DOUBLE_EQ(flow.wasted.joules(), 10.0);
}

}  // namespace
}  // namespace blam
