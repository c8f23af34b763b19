#include "energy/battery.hpp"

#include <gtest/gtest.h>

#include "degradation/model.hpp"

namespace blam {
namespace {

Battery make(double joules = 100.0, double soc = 0.5) {
  return Battery{Energy::from_joules(joules), soc};
}

TEST(Battery, ConstructionValidatesInput) {
  EXPECT_THROW(Battery(Energy::zero(), 0.5), std::invalid_argument);
  EXPECT_THROW(Battery(Energy::from_joules(-1.0), 0.5), std::invalid_argument);
  EXPECT_THROW(Battery(Energy::from_joules(10.0), -0.1), std::invalid_argument);
  EXPECT_THROW(Battery(Energy::from_joules(10.0), 1.1), std::invalid_argument);
}

TEST(Battery, InitialState) {
  const Battery b = make(100.0, 0.5);
  EXPECT_DOUBLE_EQ(b.original_capacity().joules(), 100.0);
  EXPECT_DOUBLE_EQ(b.stored().joules(), 50.0);
  EXPECT_DOUBLE_EQ(b.soc(), 0.5);
  EXPECT_DOUBLE_EQ(b.degradation(), 0.0);
}

TEST(Battery, ChargeRespectsCapacity) {
  Battery b = make(100.0, 0.9);
  const Energy absorbed = b.charge(Energy::from_joules(50.0));
  EXPECT_DOUBLE_EQ(absorbed.joules(), 10.0);
  EXPECT_DOUBLE_EQ(b.soc(), 1.0);
}

TEST(Battery, ChargeRespectsSocCap) {
  Battery b = make(100.0, 0.3);
  const Energy absorbed = b.charge(Energy::from_joules(50.0), 0.5);
  EXPECT_DOUBLE_EQ(absorbed.joules(), 20.0);  // only up to 50% of original
  EXPECT_DOUBLE_EQ(b.soc(), 0.5);
  // Above the cap nothing is absorbed.
  EXPECT_DOUBLE_EQ(b.charge(Energy::from_joules(10.0), 0.5).joules(), 0.0);
}

TEST(Battery, ChargeAboveCapDoesNotDischarge) {
  Battery b = make(100.0, 0.8);
  // Already above a 0.5 cap: charge absorbs nothing but must not drain.
  EXPECT_DOUBLE_EQ(b.charge(Energy::from_joules(10.0), 0.5).joules(), 0.0);
  EXPECT_DOUBLE_EQ(b.soc(), 0.8);
}

TEST(Battery, DischargeBoundedByStored) {
  Battery b = make(100.0, 0.2);
  EXPECT_DOUBLE_EQ(b.discharge(Energy::from_joules(15.0)).joules(), 15.0);
  EXPECT_DOUBLE_EQ(b.stored().joules(), 5.0);
  EXPECT_DOUBLE_EQ(b.discharge(Energy::from_joules(15.0)).joules(), 5.0);
  EXPECT_DOUBLE_EQ(b.stored().joules(), 0.0);
}

TEST(Battery, NegativeAmountsRejected) {
  Battery b = make();
  EXPECT_THROW(b.charge(Energy::from_joules(-1.0)), std::invalid_argument);
  EXPECT_THROW(b.discharge(Energy::from_joules(-1.0)), std::invalid_argument);
}

TEST(Battery, DegradationShrinksCapacity) {
  Battery b = make(100.0, 1.0);
  b.set_degradation(0.1);
  EXPECT_DOUBLE_EQ(b.current_capacity().joules(), 90.0);
  // Stored energy clamps to the shrunken capacity.
  EXPECT_DOUBLE_EQ(b.stored().joules(), 90.0);
  EXPECT_DOUBLE_EQ(b.soc(), 0.9);
}

TEST(Battery, DegradationIsMonotone) {
  Battery b = make();
  b.set_degradation(0.1);
  b.set_degradation(0.05);  // attempts to "heal" are ignored
  EXPECT_DOUBLE_EQ(b.degradation(), 0.1);
}

TEST(Battery, EndOfLifeAtThreshold) {
  // The default EoL rule (run_until_eol stops at eol_threshold) is the
  // point where 80% of the original capacity is left.
  Battery b = make();
  b.set_degradation(DegradationParams{}.eol_threshold);
  EXPECT_DOUBLE_EQ(b.current_capacity().joules(), 0.8 * b.original_capacity().joules());
}

TEST(Battery, ChargeCappedByDegradedCapacity) {
  Battery b = make(100.0, 0.0);
  b.set_degradation(0.2);
  const Energy absorbed = b.charge(Energy::from_joules(1000.0));
  EXPECT_DOUBLE_EQ(absorbed.joules(), 80.0);
  EXPECT_DOUBLE_EQ(b.soc(), 0.8);  // SoC is relative to ORIGINAL capacity
}

}  // namespace
}  // namespace blam
