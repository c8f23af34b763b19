#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace blam {
namespace {

TEST(Simulator, RunsEventsAndAdvancesClock) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_at(Time::from_seconds(2.0), [&] { times.push_back(sim.now().seconds()); });
  sim.schedule_at(Time::from_seconds(1.0), [&] { times.push_back(sim.now().seconds()); });
  sim.run_until(Time::from_seconds(2.0));
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(sim.now(), Time::from_seconds(2.0));
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  Time fired{};
  sim.schedule_at(Time::from_seconds(5.0), [&] {
    sim.schedule_in(Time::from_seconds(3.0), [&] { fired = sim.now(); });
  });
  sim.run_until(Time::from_seconds(10.0));
  EXPECT_EQ(fired, Time::from_seconds(8.0));
}

TEST(Simulator, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.schedule_at(Time::from_seconds(10.0), [] {});
  sim.run_until(Time::from_seconds(10.0));
  EXPECT_THROW(sim.schedule_at(Time::from_seconds(5.0), [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(Time::from_seconds(-1.0), [] {}), std::invalid_argument);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndSetsClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(Time::from_seconds(1.0), [&] { ++fired; });
  sim.schedule_at(Time::from_seconds(10.0), [&] { ++fired; });
  sim.run_until(Time::from_seconds(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::from_seconds(5.0));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(Time::from_seconds(20.0));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), Time::from_seconds(20.0));
}

TEST(Simulator, EventAtBoundaryIncluded) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(Time::from_seconds(5.0), [&] { fired = true; });
  sim.run_until(Time::from_seconds(5.0));
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  const EventHandle h = sim.schedule_at(Time::from_seconds(1.0), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(h));
  sim.run_until(Time::from_seconds(1.0));
  EXPECT_FALSE(fired);
}

TEST(Simulator, CallbackCanScheduleAtCurrentTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(Time::from_seconds(1.0), [&] {
    order.push_back(1);
    sim.schedule_at(sim.now(), [&] { order.push_back(2); });
  });
  sim.run_until(Time::from_seconds(1.0));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, BarrierScheduleBeforeThePeekedEventFiresFirst) {
  // The sharded dissemination-tick shape: run_until(T) stops at an epoch
  // barrier after peeking at the next event, 10 min past T. The barrier
  // then schedules a tick 1 s past T, which must fire before that event.
  Simulator sim;
  const Time barrier = Time::from_hours(1.0);
  std::vector<Time> fired;
  sim.schedule_at(Time::from_minutes(5.0), [&] { fired.push_back(sim.now()); });
  sim.schedule_at(barrier + Time::from_minutes(10.0), [&] { fired.push_back(sim.now()); });
  sim.run_until(barrier);
  ASSERT_EQ(sim.now(), barrier);
  ASSERT_EQ(fired.size(), 1u);
  sim.schedule_at(barrier + Time::from_seconds(1.0), [&] { fired.push_back(sim.now()); });
  sim.run_until(barrier + Time::from_hours(1.0));
  EXPECT_EQ(fired, (std::vector<Time>{Time::from_minutes(5.0), barrier + Time::from_seconds(1.0),
                                      barrier + Time::from_minutes(10.0)}));
}

TEST(PeriodicProcess, TicksAtFixedPeriod) {
  Simulator sim;
  std::vector<double> ticks;
  PeriodicProcess proc{sim, Time::from_seconds(1.0), Time::from_seconds(2.0),
                       [&] { ticks.push_back(sim.now().seconds()); }};
  sim.run_until(Time::from_seconds(7.5));
  EXPECT_EQ(ticks, (std::vector<double>{1.0, 3.0, 5.0, 7.0}));
}

TEST(PeriodicProcess, CancelStopsTicks) {
  Simulator sim;
  int ticks = 0;
  PeriodicProcess proc{sim, Time::from_seconds(1.0), Time::from_seconds(1.0), [&] { ++ticks; }};
  sim.run_until(Time::from_seconds(2.5));
  proc.cancel();
  sim.run_until(Time::from_seconds(10.0));
  EXPECT_EQ(ticks, 2);
}

TEST(PeriodicProcess, DestructionCancels) {
  Simulator sim;
  int ticks = 0;
  {
    PeriodicProcess proc{sim, Time::from_seconds(1.0), Time::from_seconds(1.0), [&] { ++ticks; }};
  }
  sim.run_until(Time::from_seconds(5.0));
  EXPECT_EQ(ticks, 0);
}

TEST(PeriodicProcess, RejectsNonPositivePeriod) {
  Simulator sim;
  EXPECT_THROW(PeriodicProcess(sim, Time::zero(), Time::zero(), [] {}), std::invalid_argument);
}

}  // namespace
}  // namespace blam
