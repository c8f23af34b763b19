#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace blam {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(Time::from_ms(30), [&] { fired.push_back(3); });
  q.schedule(Time::from_ms(10), [&] { fired.push_back(1); });
  q.schedule(Time::from_ms(20), [&] { fired.push_back(2); });
  while (!q.empty()) {
    auto [time, cb] = q.pop();
    cb();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinSameTimestamp) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(Time::from_ms(5), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventHandle h = q.schedule(Time::from_ms(1), [&] { fired = true; });
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(h));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, DoubleCancelIsHarmless) {
  EventQueue q;
  const EventHandle h = q.schedule(Time::from_ms(1), [] {});
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));
  EXPECT_FALSE(q.cancel(EventHandle{}));  // null handle
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventHandle h = q.schedule(Time::from_ms(1), [] {});
  q.pop().callback();
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, StaleHandleAfterSlotReuseIsRejected) {
  EventQueue q;
  const EventHandle h1 = q.schedule(Time::from_ms(1), [] {});
  (void)q.pop();  // frees the slot
  const EventHandle h2 = q.schedule(Time::from_ms(2), [] {});
  // h1 very likely reuses the slot of h2; cancelling h1 must NOT kill h2.
  EXPECT_FALSE(q.cancel(h1));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(h2));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventHandle early = q.schedule(Time::from_ms(1), [] {});
  q.schedule(Time::from_ms(5), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), Time::from_ms(5));
}

TEST(EventQueue, SizeCountsLiveOnly) {
  EventQueue q;
  const EventHandle a = q.schedule(Time::from_ms(1), [] {});
  q.schedule(Time::from_ms(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, SlotsAreRecycledUnderChurn) {
  // Schedule/cancel far more events than remain pending; the slot store
  // must stay small (indirectly: no crash, correct ordering).
  EventQueue q;
  Rng rng{99};
  std::vector<EventHandle> live;
  for (int round = 0; round < 10000; ++round) {
    live.push_back(q.schedule(Time::from_us(rng.uniform_int(0, 1000000)), [] {}));
    if (live.size() > 16) {
      q.cancel(live.front());
      live.erase(live.begin());
    }
    if (round % 7 == 0 && !q.empty()) (void)q.pop();
  }
  Time prev = Time::zero();
  std::size_t drained = 0;
  while (!q.empty()) {
    auto [time, cb] = q.pop();
    EXPECT_GE(time, prev);
    prev = time;
    ++drained;
  }
  EXPECT_LE(drained, 17u);
}

TEST(EventQueue, CancelRescheduleChurnPreservesMonotonicityAndLiveness) {
  // The retransmission path cancels and re-schedules the same logical timer
  // constantly; under that churn pops must stay time-ordered and exactly the
  // live (never-cancelled) events must fire.
  EventQueue q;
  Rng rng{777};
  std::vector<EventHandle> pending;
  std::size_t scheduled = 0;
  std::size_t cancelled = 0;
  std::size_t fired = 0;
  Time now = Time::zero();

  for (int round = 0; round < 20'000; ++round) {
    const int op = rng.uniform_int(0, 9);
    if (op < 5 || pending.empty()) {
      // Schedule at or after `now` — the engine's contract.
      const Time t = now + Time::from_us(rng.uniform_int(0, 60'000'000));
      pending.push_back(q.schedule(t, [] {}));
      ++scheduled;
    } else if (op < 8) {
      // Cancel a random pending handle (it may have fired already).
      const std::size_t k =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(pending.size()) - 1));
      if (q.cancel(pending[k])) ++cancelled;
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (!q.empty()) {
      // Pop: time must never regress.
      auto [t, cb] = q.pop();
      ASSERT_GE(t.us(), now.us()) << "round " << round;
      now = t;
      ++fired;
    }
  }
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    ASSERT_GE(t.us(), now.us());
    now = t;
    ++fired;
  }
  EXPECT_EQ(fired + cancelled, scheduled);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, LookupReportsScheduleKeyOfLiveEvent) {
  EventQueue q;
  q.schedule(Time::from_ms(7), [] {});
  const EventHandle h = q.schedule(Time::from_ms(3), [] {});
  q.schedule(Time::from_ms(5), [] {});
  const auto pending = q.lookup(h);
  ASSERT_TRUE(pending.has_value());
  EXPECT_EQ(pending->time, Time::from_ms(3));
  EXPECT_EQ(pending->seq, 1u);
  EXPECT_FALSE(q.lookup(EventHandle{}).has_value());
}

TEST(EventQueue, LookupIsEmptyAfterCancel) {
  EventQueue q;
  const EventHandle h = q.schedule(Time::from_ms(1), [] {});
  q.schedule(Time::from_ms(2), [] {});
  ASSERT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.lookup(h).has_value());
}

TEST(EventQueue, LookupIsEmptyAfterFire) {
  EventQueue q;
  const EventHandle h = q.schedule(Time::from_ms(1), [] {});
  const EventHandle later = q.schedule(Time::from_ms(2), [] {});
  q.pop().callback();
  EXPECT_FALSE(q.lookup(h).has_value());
  ASSERT_TRUE(q.lookup(later).has_value());
  EXPECT_EQ(q.lookup(later)->seq, 1u);
}

TEST(EventQueue, LookupRejectsStaleGenerationOnRecycledSlot) {
  EventQueue q;
  const EventHandle old = q.schedule(Time::from_ms(1), [] {});
  (void)q.pop();  // frees the slot
  const EventHandle fresh = q.schedule(Time::from_ms(9), [] {});
  ASSERT_EQ(fresh.slot, old.slot);  // the free list hands the slot back
  EXPECT_FALSE(q.lookup(old).has_value());
  ASSERT_TRUE(q.lookup(fresh).has_value());
  EXPECT_EQ(q.lookup(fresh)->time, Time::from_ms(9));
  EXPECT_EQ(q.lookup(fresh)->seq, 1u);
}

TEST(EventQueue, LookupIsEmptyAfterClear) {
  EventQueue q;
  const EventHandle h = q.schedule(Time::from_ms(1), [] {});
  q.clear();
  EXPECT_FALSE(q.lookup(h).has_value());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ScheduleWithSeqReportsExplicitSeq) {
  EventQueue q;
  q.set_next_seq(10);
  const EventHandle restored = q.schedule_with_seq(Time::from_ms(4), 3, [] {});
  const EventHandle fresh = q.schedule(Time::from_ms(4), [] {});
  ASSERT_TRUE(q.lookup(restored).has_value());
  EXPECT_EQ(q.lookup(restored)->seq, 3u);
  EXPECT_EQ(q.lookup(restored)->time, Time::from_ms(4));
  EXPECT_EQ(q.lookup(fresh)->seq, 10u);
  EXPECT_EQ(q.next_seq(), 11u);  // the explicit seq does not advance the counter
}

TEST(EventQueue, RandomizedOrderingProperty) {
  EventQueue q;
  Rng rng{1234};
  for (int i = 0; i < 5000; ++i) {
    q.schedule(Time::from_us(rng.uniform_int(0, 10'000'000)), [] {});
  }
  Time prev = Time::zero();
  while (!q.empty()) {
    auto [time, cb] = q.pop();
    EXPECT_GE(time.us(), prev.us());
    prev = time;
  }
}

}  // namespace
}  // namespace blam
