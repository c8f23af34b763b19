#include "net/network_server.hpp"

#include <gtest/gtest.h>

namespace blam {
namespace {

UplinkFrame frame(std::uint32_t node, std::uint32_t seq, std::vector<SocSample> report = {}) {
  UplinkFrame f;
  f.node_id = node;
  f.seq = seq;
  f.soc_report = std::move(report);
  if (!f.soc_report.empty()) {
    // Mirror Node::build_frame: one report generation per packet, stamped
    // with the simulator-level checksum.
    f.report_seq = static_cast<std::uint16_t>(seq);
    f.report_crc = report_checksum(f.report_seq, f.soc_report);
  }
  return f;
}

class NetworkServerTest : public ::testing::Test {
 protected:
  Simulator sim_;
  DegradationModel model_{};
  NetworkServer server_{sim_, model_, Time::from_days(1.0)};
};

TEST_F(NetworkServerTest, AcceptsNewAndRejectsDuplicates) {
  EXPECT_TRUE(server_.on_uplink(frame(1, 1)));
  EXPECT_FALSE(server_.on_uplink(frame(1, 1)));  // retransmission duplicate
  EXPECT_TRUE(server_.on_uplink(frame(1, 2)));
  EXPECT_FALSE(server_.on_uplink(frame(1, 1)));  // stale
  EXPECT_TRUE(server_.on_uplink(frame(2, 1)));   // other node independent
}

TEST_F(NetworkServerTest, NoDisseminationBeforeFirstRecompute) {
  const std::uint32_t ids[] = {1};
  server_.register_nodes(ids);
  EXPECT_FALSE(server_.dissemination_ready());
  EXPECT_DOUBLE_EQ(server_.w_for(1), 0.0);
}

TEST_F(NetworkServerTest, DailyRecomputeEnablesDissemination) {
  const std::uint32_t ids[] = {1, 2};
  server_.register_nodes(ids);
  std::vector<SocSample> high;
  std::vector<SocSample> low;
  for (int d = 0; d <= 5; ++d) {
    high.push_back({Time::from_hours(4 * d), 0.95});
    low.push_back({Time::from_hours(4 * d), 0.20});
  }
  EXPECT_TRUE(server_.on_uplink(frame(1, 1, high)));
  EXPECT_TRUE(server_.on_uplink(frame(2, 1, low)));

  sim_.run_until(Time::from_days(1.5));  // first daily recompute fires
  EXPECT_TRUE(server_.dissemination_ready());
  EXPECT_DOUBLE_EQ(server_.w_for(1), 1.0);  // most degraded
  EXPECT_GT(server_.w_for(2), 0.0);
  EXPECT_LT(server_.w_for(2), 1.0);
}

TEST_F(NetworkServerTest, DuplicateSocReportsAreNotDoubleIngested) {
  std::vector<SocSample> report{{Time::from_hours(1.0), 0.5}, {Time::from_hours(2.0), 0.4}};
  EXPECT_TRUE(server_.on_uplink(frame(1, 1, report)));
  // The duplicate carries the same samples; re-ingesting would throw
  // (time went backwards) or corrupt the trace. It must be ignored.
  EXPECT_FALSE(server_.on_uplink(frame(1, 1, report)));
  std::vector<SocSample> next{{Time::from_hours(3.0), 0.6}};
  EXPECT_TRUE(server_.on_uplink(frame(1, 2, next)));
}

TEST_F(NetworkServerTest, ServiceAccessors) {
  const std::uint32_t ids[] = {7};
  server_.register_nodes(ids);
  EXPECT_EQ(server_.service().node_count(), 1u);
  server_.register_nodes(ids);  // idempotent
  EXPECT_EQ(server_.service().node_count(), 1u);
}

}  // namespace
}  // namespace blam
