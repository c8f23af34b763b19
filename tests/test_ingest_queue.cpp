// SocIngestQueue: FIFO staging buffer between report arrival and batched
// ledger processing. Order, payload integrity and wholesale storage
// recycling are what the batch-determinism argument in DESIGN.md §13 rests
// on, so they get direct coverage here.
#include <gtest/gtest.h>

#include <vector>

#include "core/soc_ingest_queue.hpp"

namespace blam {
namespace {

std::vector<SocSample> make_samples(int base, int count) {
  std::vector<SocSample> out;
  for (int i = 0; i < count; ++i) {
    out.push_back({Time::from_hours(base + i), 0.01 * (base + i)});
  }
  return out;
}

TEST(SocIngestQueue, FifoOrderAndPayloadIntegrity) {
  SocIngestQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);

  for (int r = 0; r < 5; ++r) {
    q.push(100 + r, static_cast<std::uint16_t>(r), static_cast<std::uint8_t>(0xA0 + r),
           make_samples(10 * r, r + 1));
  }
  EXPECT_EQ(q.size(), 5u);

  for (int r = 0; r < 5; ++r) {
    ASSERT_FALSE(q.empty());
    const SocIngestQueue::Record rec = q.front();
    EXPECT_EQ(rec.node_id, static_cast<std::uint32_t>(100 + r));
    EXPECT_EQ(rec.report_seq, static_cast<std::uint16_t>(r));
    EXPECT_EQ(rec.report_crc, static_cast<std::uint8_t>(0xA0 + r));
    const auto samples = q.front_samples();
    ASSERT_EQ(samples.size(), static_cast<std::size_t>(r + 1));
    for (int i = 0; i <= r; ++i) {
      EXPECT_EQ(samples[i].t, Time::from_hours(10 * r + i));
      EXPECT_EQ(samples[i].soc, 0.01 * (10 * r + i));
    }
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(SocIngestQueue, WholesaleRecycleKeepsCapacity) {
  SocIngestQueue q;
  for (int r = 0; r < 64; ++r) {
    q.push(r, static_cast<std::uint16_t>(r), 0, make_samples(r, 8));
  }
  while (!q.empty()) q.pop_front();
  const std::size_t rec_cap = q.record_capacity();
  const std::size_t sam_cap = q.sample_capacity();
  EXPECT_GE(rec_cap, 64u);
  EXPECT_GE(sam_cap, 64u * 8u);
  EXPECT_EQ(q.size(), 0u);

  // Refill at the same rate: the drained storage is reused in place, no
  // reallocation.
  for (int round = 0; round < 10; ++round) {
    for (int r = 0; r < 64; ++r) {
      q.push(r, static_cast<std::uint16_t>(r), 0, make_samples(r, 8));
    }
    while (!q.empty()) q.pop_front();
  }
  EXPECT_EQ(q.record_capacity(), rec_cap);
  EXPECT_EQ(q.sample_capacity(), sam_cap);
}

TEST(SocIngestQueue, InterleavedPushPopKeepsArrivalOrder) {
  SocIngestQueue q;
  q.push(1, 1, 0, make_samples(0, 2));
  q.push(2, 1, 0, make_samples(2, 2));
  EXPECT_EQ(q.front().node_id, 1u);
  q.pop_front();
  // Push while non-empty, then drain: arrival order is preserved even
  // though the head index is mid-buffer.
  q.push(3, 1, 0, make_samples(4, 2));
  EXPECT_EQ(q.front().node_id, 2u);
  q.pop_front();
  EXPECT_EQ(q.front().node_id, 3u);
  EXPECT_EQ(q.front_samples()[0].t, Time::from_hours(4));
  q.pop_front();
  EXPECT_TRUE(q.empty());
}

TEST(SocIngestQueue, EmptyReportCarriesNoSamples) {
  SocIngestQueue q;
  q.push(9, 3, 0x5A, {});
  ASSERT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.front_samples().empty());
  EXPECT_EQ(q.front().report_seq, 3u);
  q.pop_front();
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace blam
