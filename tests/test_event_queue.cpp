#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
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

/// Drives an EventQueue and a std::set<(time, seq)> reference side by side;
/// every pop, peek, cancel and size must agree exactly.
class DifferentialQueue {
 public:
  using Key = std::pair<std::int64_t, std::uint64_t>;

  void schedule(std::int64_t time_us) {
    const std::uint64_t seq = q_.next_seq();
    handles_.push_back({q_.schedule(Time::from_us(time_us), callback(seq)), {time_us, seq}});
    ref_.insert({time_us, seq});
    ++ops_;
  }

  /// Cancels a random handle (it may have fired or been cancelled already).
  void cancel(Rng& rng) {
    if (handles_.empty()) return;
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(handles_.size()) - 1));
    const auto [handle, key] = handles_[k];
    handles_[k] = handles_.back();
    handles_.pop_back();
    EXPECT_EQ(q_.cancel(handle), ref_.erase(key) == 1) << "cancel at op " << ops_;
    ++ops_;
  }

  void pop() {
    if (ref_.empty()) return;
    const Key expected = *ref_.begin();
    ref_.erase(ref_.begin());
    EventQueue::Popped popped = q_.pop();
    popped.callback();
    ASSERT_EQ((Key{popped.time.us(), fired_seq_}), expected) << "pop at op " << ops_;
    now_ = popped.time.us();
    ++ops_;
  }

  /// next_time() must equal the reference's head; returns it (or now when
  /// empty).
  std::int64_t peek() {
    ++ops_;
    if (ref_.empty()) return now_;
    const std::int64_t t = q_.next_time().us();
    EXPECT_EQ(t, ref_.begin()->first) << "peek at op " << ops_;
    return t;
  }

  /// The checkpoint-restore shape: wipe the queue, replay every pending
  /// (time, seq) in shuffled order under its original seq, then restore the
  /// counter.
  void clear_and_restore(Rng& rng) {
    std::vector<Key> pending(ref_.begin(), ref_.end());
    for (std::size_t i = pending.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(pending[i - 1], pending[j]);
    }
    const std::uint64_t next_seq = q_.next_seq();
    q_.clear();
    EXPECT_TRUE(q_.empty());
    handles_.clear();
    for (const Key& key : pending) {
      handles_.push_back(
          {q_.schedule_with_seq(Time::from_us(key.first), key.second, callback(key.second)), key});
      ++ops_;
    }
    q_.set_next_seq(next_seq);
  }

  void check_size() {
    ASSERT_EQ(q_.size(), ref_.size()) << "size at op " << ops_;
    ASSERT_EQ(q_.empty(), ref_.empty());
  }

  void drain() {
    while (!ref_.empty()) pop();
    EXPECT_TRUE(q_.empty());
  }

  [[nodiscard]] std::int64_t now() const { return now_; }
  [[nodiscard]] std::size_t size() const { return ref_.size(); }
  [[nodiscard]] std::size_t ops() const { return ops_; }

 private:
  EventQueue::Callback callback(std::uint64_t seq) {
    return [this, seq] { fired_seq_ = seq; };
  }

  EventQueue q_;
  std::set<Key> ref_;
  std::vector<std::pair<EventHandle, Key>> handles_;
  std::int64_t now_{0};
  std::uint64_t fired_seq_{0};
  std::size_t ops_{0};
};

/// One seeded run of the operation mix. A dense run keeps thousands of
/// events pending, like a city slice; a sparse run keeps at most
/// `sparse_cap`, so a peek often jumps the cursor tens of minutes (or, when
/// only far events remain, days) ahead and the schedule that follows
/// rewinds it over ring entries that then sit more than a lap past the
/// cursor, aliasing nearer buckets' lists.
void run_mix(DifferentialQueue& d, std::uint64_t seed, int rounds, std::size_t sparse_cap) {
  constexpr std::int64_t kMinute = 60'000'000;
  constexpr std::int64_t kDay = 24 * 60 * kMinute;
  constexpr std::int64_t kLap = EventQueue::kBuckets * EventQueue::kBucketWidthUs;
  Rng rng{seed};
  for (int round = 0; round < rounds; ++round) {
    const std::int64_t now = d.now();
    std::int64_t op = rng.uniform_int(0, 99);
    if (sparse_cap > 0 && d.size() > sparse_cap && op < 40) op = 55;  // pop instead
    if (op < 30) {
      d.schedule(now + rng.uniform_int(0, 90 * kMinute));
    } else if (op < 35) {
      d.schedule(now + rng.uniform_int(0, 2'000'000));
    } else if (op < 37) {
      d.schedule(now + rng.uniform_int(1, 10) * kDay + rng.uniform_int(0, kDay));
    } else if (op < 39) {
      const std::int64_t t = now + rng.uniform_int(0, 90 * kMinute);
      d.schedule(t);
      d.schedule(t + kLap);
    } else if (op < 40) {
      d.schedule(now);
    } else if (op < 55) {
      d.cancel(rng);
    } else if (op < 90) {
      d.pop();
    } else {
      // run_until's barrier: peek (which may move the cursor past the
      // barrier), then schedule anywhere between now and the peeked time.
      const std::int64_t peeked = d.peek();
      d.schedule(now + rng.uniform_int(0, peeked - now));
    }
    if (round % 40'000 == 39'999) d.clear_and_restore(rng);
    if (round % 1'000 == 0) d.check_size();
    if (::testing::Test::HasFatalFailure()) return;
  }
  d.drain();
}

TEST(EventQueue, MatchesOrderedSetReference) {
  // The calendar queue's paths, each against a std::set reference: the t=0
  // boot burst (appends to the current run), schedules over the ring's
  // horizon and days ahead (the far heap), in-bucket arrivals (the side
  // heap), cancels, pairs exactly one ring lap apart (two absolute buckets
  // sharing one list), a peek followed by a schedule before the peeked
  // bucket (the barrier rewind), and clear() + shuffled schedule_with_seq
  // (checkpoint restore).
  DifferentialQueue dense;
  for (int i = 0; i < 100'000; ++i) dense.schedule(0);
  for (int i = 0; i < 60'000; ++i) dense.pop();
  dense.check_size();
  run_mix(dense, 2024, 160'000, 0);

  DifferentialQueue sparse;
  run_mix(sparse, 2025, 120'000, 24);
  EXPECT_GE(dense.ops() + sparse.ops(), 200'000u);
}

TEST(EventQueue, PeekPastTheBarrierThenScheduleEarlierRewinds) {
  // The sharded dissemination-tick shape at queue level: next_time() jumps
  // the cursor to an event 10 min out (and, separately, one past the
  // horizon); an event scheduled 1 s out must still pop first.
  for (const std::int64_t ahead_us :
       {std::int64_t{600'000'000}, std::int64_t{3} * 86'400'000'000}) {
    EventQueue q;
    q.schedule(Time::from_us(ahead_us), [] {});
    EXPECT_EQ(q.next_time(), Time::from_us(ahead_us));
    q.schedule(Time::from_seconds(1.0), [] {});
    EXPECT_EQ(q.pop().time, Time::from_seconds(1.0));
    EXPECT_EQ(q.pop().time, Time::from_us(ahead_us));
    EXPECT_TRUE(q.empty());
  }
}

}  // namespace
}  // namespace blam
