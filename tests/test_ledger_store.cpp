// Differential tests for the columnar LedgerStore (PR 7): every arithmetic
// path must be BIT-identical to the per-node DegradationTracker it
// replaced, the residual cache must never perturb results, the held-report
// slots must behave like the old sorted vector, and the SpanArena must keep
// element identity across growth and recycling.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "core/ledger_store.hpp"
#include "core/span_arena.hpp"
#include "degradation/model.hpp"
#include "degradation/tracker.hpp"

namespace blam {
namespace {

constexpr std::uint32_t kHeldSlots = 5;

TEST(LedgerStore, MatchesTrackerBitExactOnRandomTraces) {
  const DegradationModel model;
  LedgerStore store{model, 25.0, kHeldSlots};
  constexpr int kNodes = 17;
  std::deque<DegradationTracker> reference;  // deque: tracker is non-copyable
  for (int n = 0; n < kNodes; ++n) {
    ASSERT_EQ(store.add_node(), static_cast<NodeHandle>(n));
    reference.emplace_back(model, 25.0);
  }

  // Interleaved random walks: each step picks a node, records a few samples
  // (random SoC levels force plenty of rainflow turning points), sometimes
  // marks a discontinuity, and occasionally probes degradation on BOTH
  // implementations — the probe order mirrors real recompute interleaving
  // and exercises the cache-invalidate-recompute path.
  Rng rng{20260809, 7};
  std::vector<double> clock_s(kNodes, 0.0);
  for (int step = 0; step < 4000; ++step) {
    const auto n = static_cast<std::uint32_t>(rng.uniform_int(0, kNodes - 1));
    const int burst = static_cast<int>(rng.uniform_int(1, 4));
    for (int b = 0; b < burst; ++b) {
      clock_s[n] += rng.uniform(60.0, 3600.0);
      const double soc = rng.uniform(0.0, 1.0);
      const Time t = Time::from_us(static_cast<std::int64_t>(clock_s[n] * 1e6));
      store.record(n, t, soc);
      reference[n].record(t, soc);
    }
    if (rng.bernoulli(0.05)) {
      store.mark_discontinuity(n);
      reference[n].mark_discontinuity();
    }
    if (rng.bernoulli(0.25)) {
      const Time probe =
          Time::from_us(static_cast<std::int64_t>((clock_s[n] + 86400.0) * 1e6));
      // EXPECT_EQ on doubles: bit-exact match required, not approximate.
      EXPECT_EQ(store.degradation_at(n, probe), reference[n].degradation(probe))
          << "node " << n << " step " << step;
    }
  }

  // Final full pass at a common horizon, plus the split aging components.
  const Time horizon = Time::from_days(400.0);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    EXPECT_EQ(store.calendar_linear(n, horizon), reference[n].calendar_linear(horizon));
    EXPECT_EQ(store.cycle_linear(n), reference[n].cycle_linear());
    EXPECT_EQ(store.degradation_at(n, horizon), reference[n].degradation(horizon));
  }
}

TEST(LedgerStore, ResidualCacheHitIsBitExactAndCounted) {
  const DegradationModel model;
  LedgerStore store{model, 25.0, kHeldSlots};
  const NodeHandle a = store.add_node();
  const NodeHandle b = store.add_node();
  for (int i = 0; i < 40; ++i) {
    const double soc = (i % 2 == 0) ? 0.9 - 0.01 * i : 0.2 + 0.01 * i;
    store.record(a, Time::from_hours(i), soc);
    store.record(b, Time::from_hours(i), 1.0 - soc);
  }
  EXPECT_EQ(store.clean_rows(), 0u);

  const Time probe = Time::from_days(30.0);
  const double first_a = store.degradation_at(a, probe);
  const double first_b = store.degradation_at(b, probe);
  EXPECT_EQ(store.clean_rows(), 2u);

  // Cache hit: same bits, still counted clean.
  EXPECT_EQ(store.degradation_at(a, probe), first_a);
  // A later probe only moves calendar aging; the cached cycle chain is
  // unchanged, so the result must match a fresh end-to-end evaluation.
  DegradationTracker fresh{model, 25.0};
  for (int i = 0; i < 40; ++i) {
    const double soc = (i % 2 == 0) ? 0.9 - 0.01 * i : 0.2 + 0.01 * i;
    fresh.record(Time::from_hours(i), soc);
  }
  EXPECT_EQ(store.degradation_at(a, Time::from_days(60.0)),
            fresh.degradation(Time::from_days(60.0)));

  // New sample dirties only that row.
  store.record(b, Time::from_hours(41.0), 0.77);
  EXPECT_EQ(store.clean_rows(), 1u);
  EXPECT_NE(store.degradation_at(b, probe), first_b);
}

TEST(LedgerStore, HeldSlotsInsertRemoveClearKeepOrder) {
  const DegradationModel model;
  LedgerStore store{model, 25.0, kHeldSlots};
  const NodeHandle h = store.add_node();
  const std::vector<SocSample> s1 = {{Time::from_hours(1.0), 0.5}};
  const std::vector<SocSample> s2 = {{Time::from_hours(2.0), 0.6}, {Time::from_hours(3.0), 0.4}};
  const std::vector<SocSample> s3 = {{Time::from_hours(4.0), 0.3}};

  store.held_insert(h, 0, 7, s2);
  store.held_insert(h, 0, 5, s1);  // insert before
  store.held_insert(h, 2, 9, s3);  // append
  ASSERT_EQ(store.held_count(h), 3u);
  EXPECT_EQ(store.held_seq(h, 0), 5);
  EXPECT_EQ(store.held_seq(h, 1), 7);
  EXPECT_EQ(store.held_seq(h, 2), 9);
  ASSERT_EQ(store.held_samples(h, 1).size(), 2u);
  EXPECT_EQ(store.held_samples(h, 1)[1].soc, 0.4);

  store.held_remove(h, 1);
  ASSERT_EQ(store.held_count(h), 2u);
  EXPECT_EQ(store.held_seq(h, 0), 5);
  EXPECT_EQ(store.held_seq(h, 1), 9);
  EXPECT_EQ(store.held_samples(h, 1)[0].soc, 0.3);

  store.held_clear(h);
  EXPECT_EQ(store.held_count(h), 0u);

  // Out-of-bounds guards.
  EXPECT_THROW(store.held_remove(h, 0), std::logic_error);
  EXPECT_THROW(store.held_insert(h, 1, 1, s1), std::logic_error);
}

TEST(LedgerStore, ArenaRecyclesHeldSampleStorage) {
  const DegradationModel model;
  LedgerStore store{model, 25.0, kHeldSlots};
  const NodeHandle h = store.add_node();
  std::vector<SocSample> payload;
  for (int i = 0; i < 6; ++i) payload.push_back({Time::from_hours(i), 0.5});

  store.held_insert(h, 0, 1, payload);
  store.held_remove(h, 0);
  const std::size_t pool_after_first = store.arena_pool_elements();
  // Steady-state churn at the same payload size reuses the freed block: the
  // pool must not grow again.
  for (std::uint16_t i = 0; i < 200; ++i) {
    store.held_insert(h, 0, i, payload);
    store.held_remove(h, 0);
  }
  EXPECT_EQ(store.arena_pool_elements(), pool_after_first);
}

TEST(LedgerStore, SnapshotRestoreRoundTripsBitExact) {
  const DegradationModel model;
  LedgerStore store{model, 25.0, kHeldSlots};
  const NodeHandle h = store.add_node();
  Rng rng{99, 1};
  double t_s = 0.0;
  for (int i = 0; i < 100; ++i) {
    t_s += rng.uniform(100.0, 5000.0);
    store.record(h, Time::from_us(static_cast<std::int64_t>(t_s * 1e6)), rng.uniform(0.0, 1.0));
  }
  const DegradationTracker::Snapshot snap = store.snapshot(h);

  LedgerStore other{model, 25.0, kHeldSlots};
  const NodeHandle g = other.add_node();
  other.restore(g, snap);
  const Time probe = Time::from_days(10.0);
  EXPECT_EQ(other.degradation_at(g, probe), store.degradation_at(h, probe));
  // Continued recording stays in lockstep (the rainflow machine state,
  // including the in-flight direction, survived the round trip).
  for (int i = 0; i < 20; ++i) {
    t_s += 500.0;
    const Time t = Time::from_us(static_cast<std::int64_t>(t_s * 1e6));
    const double soc = (i % 2 == 0) ? 0.8 : 0.25;
    store.record(h, t, soc);
    other.record(g, t, soc);
  }
  EXPECT_EQ(other.degradation_at(g, probe + Time::from_days(1.0)),
            store.degradation_at(h, probe + Time::from_days(1.0)));
}

TEST(SpanArena, GrowthPreservesContentsAndRecyclesBlocks) {
  SpanArena<int> arena;
  SpanArena<int>::Ref a;
  SpanArena<int>::Ref b;
  // Interleaved growth forces `a` through several size classes while `b`
  // occupies neighbouring pool space; contents must survive every move.
  for (int i = 0; i < 200; ++i) {
    arena.push_back(a, i);
    if (i % 3 == 0) arena.push_back(b, -i);
  }
  ASSERT_EQ(arena.view(a).size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(arena.view(a)[i], i);
  for (std::size_t i = 0; i < arena.view(b).size(); ++i) {
    EXPECT_EQ(arena.view(b)[i], -static_cast<int>(i) * 3);
  }

  // Release and re-grow: freed size classes are LIFO-reused, so the pool
  // footprint plateaus under churn. (One warm-up round first: `b` stole one
  // of `a`'s freed intermediate blocks during the interleaved growth above,
  // so the very first regrow may legitimately add one block.)
  arena.release(a);
  {
    SpanArena<int>::Ref warmup;
    for (int i = 0; i < 200; ++i) arena.push_back(warmup, i);
    arena.release(warmup);
  }
  const std::size_t pool = arena.pool_elements();
  for (int round = 0; round < 50; ++round) {
    SpanArena<int>::Ref c;
    for (int i = 0; i < 200; ++i) arena.push_back(c, i);
    arena.release(c);
  }
  EXPECT_EQ(arena.pool_elements(), pool);

  // clear() keeps the block; shrink() drops elements from the back.
  SpanArena<int>::Ref d;
  for (int i = 0; i < 10; ++i) arena.push_back(d, i);
  arena.shrink(d, 4);
  ASSERT_EQ(arena.view(d).size(), 6u);
  EXPECT_EQ(arena.view(d)[5], 5);
  arena.clear(d);
  EXPECT_TRUE(arena.view(d).empty());

  // assign() replaces contents wholesale.
  const std::vector<int> payload = {42, 43, 44};
  arena.assign(d, payload);
  ASSERT_EQ(arena.view(d).size(), 3u);
  EXPECT_EQ(arena.view(d)[2], 44);
}

}  // namespace
}  // namespace blam
