#include "net/metrics.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sim/checkpoint.hpp"

namespace blam {

int NodeMetrics::majority_window() const {
  if (window_counts.empty()) return -1;
  const auto it = std::max_element(window_counts.begin(), window_counts.end());
  if (*it == 0) return -1;
  return static_cast<int>(it - window_counts.begin());
}

void NodeMetrics::count_window(int window) {
  if (window < 0) return;
  if (static_cast<std::size_t>(window) >= window_counts.size()) {
    window_counts.resize(static_cast<std::size_t>(window) + 1, 0);
  }
  ++window_counts[static_cast<std::size_t>(window)];
}

void write_node_metrics(StateWriter& w, const NodeMetrics& m) {
  for (const std::uint64_t count : {m.generated, m.delivered, m.exhausted, m.policy_drops,
                                    m.brownouts, m.tx_attempts, m.retx}) {
    w.put_u64(count);
  }
  write_energy(w, m.tx_energy);
  w.put_double(m.utility_sum);
  write_stats(w, m.latency_s);
  write_stats(w, m.delivered_latency_s);
  write_sparse_row(w, m.window_counts);
  for (const std::uint64_t count : {m.crashes, m.reboot_drops, m.lost_in_outage}) {
    w.put_u64(count);
  }
  write_stats(w, m.recovery_s);
  write_stats(w, m.w_age_s);
}

void read_node_metrics(StateReader& r, NodeMetrics& m) {
  for (std::uint64_t* count : {&m.generated, &m.delivered, &m.exhausted, &m.policy_drops,
                               &m.brownouts, &m.tx_attempts, &m.retx}) {
    *count = r.get_u64();
  }
  m.tx_energy = read_energy(r);
  m.utility_sum = r.get_double();
  read_stats(r, m.latency_s);
  read_stats(r, m.delivered_latency_s);
  std::ranges::fill(m.window_counts, 0);
  read_sparse_row(r, m.window_counts.size(), "node metrics: window histogram",
                  [&](std::size_t window, std::uint64_t count) {
                    if (count > std::numeric_limits<std::uint32_t>::max()) {
                      throw std::runtime_error{"node metrics: window count out of range"};
                    }
                    m.window_counts[window] = static_cast<std::uint32_t>(count);
                  });
  for (std::uint64_t* count : {&m.crashes, &m.reboot_drops, &m.lost_in_outage}) {
    *count = r.get_u64();
  }
  read_stats(r, m.recovery_s);
  read_stats(r, m.w_age_s);
}

void write_node_battery(StateWriter& w, const NodeMetrics& m) {
  for (const double v : {m.degradation, m.cycle_linear, m.calendar_linear, m.mean_soc,
                         m.final_soc}) {
    w.put_double(v);
  }
}

void read_node_battery(StateReader& r, NodeMetrics& m) {
  for (double* v : {&m.degradation, &m.cycle_linear, &m.calendar_linear, &m.mean_soc,
                    &m.final_soc}) {
    *v = r.get_double();
  }
}

void write_gateway_metrics(StateWriter& w, const GatewayMetrics& m) {
  for (const auto count : m.fields()) w.put_u64(m.*count);
}

void read_gateway_metrics(StateReader& r, GatewayMetrics& m) {
  for (const auto count : m.fields()) m.*count = r.get_u64();
}

Metrics::Metrics(std::size_t n_nodes) : nodes_(n_nodes) {}

NetworkSummary Metrics::summarize() const {
  NetworkSummary s;
  if (nodes_.empty()) return s;
  std::vector<double> prr;
  std::vector<double> utility;
  std::vector<double> latency;
  std::vector<double> degradation;
  double retx_sum = 0.0;
  double latency_max = 0.0;
  RunningStats delivered_latency;
  RunningStats recovery;
  RunningStats w_age;
  for (const NodeMetrics& n : nodes_) {
    prr.push_back(n.prr());
    utility.push_back(n.avg_utility());
    latency.push_back(n.latency_s.mean());
    degradation.push_back(n.degradation);
    retx_sum += n.avg_retx();
    latency_max = std::max(latency_max, n.latency_s.max());
    delivered_latency.merge(n.delivered_latency_s);
    s.total_tx_energy += n.tx_energy;
    s.lost_in_outage += n.lost_in_outage;
    s.crashes += n.crashes;
    recovery.merge(n.recovery_s);
    w_age.merge(n.w_age_s);
  }
  s.total_outage_s = total_outage_s_;
  s.feedback = feedback_;
  s.serial_reason = serial_reason_;
  s.mean_recovery_s = recovery.mean();
  s.max_recovery_s = recovery.max();
  s.mean_w_age_s = w_age.mean();
  s.max_w_age_s = w_age.max();
  s.mean_delivered_latency_s = delivered_latency.mean();
  s.max_delivered_latency_s = delivered_latency.max();
  const auto count = static_cast<double>(nodes_.size());
  s.prr_box = summarize_box(prr);
  s.utility_box = summarize_box(utility);
  s.latency_box = summarize_box(latency);
  s.degradation_box = summarize_box(degradation);
  s.mean_prr = s.prr_box.mean;
  s.min_prr = s.prr_box.min;
  s.mean_utility = s.utility_box.mean;
  s.mean_latency_s = s.latency_box.mean;
  s.max_latency_s = latency_max;
  s.mean_retx = retx_sum / count;
  s.max_degradation = s.degradation_box.max;
  return s;
}

std::vector<int> Metrics::majority_window_histogram(int n_windows) const {
  std::vector<int> histogram(static_cast<std::size_t>(std::max(n_windows, 1)), 0);
  for (const NodeMetrics& n : nodes_) {
    const int w = n.majority_window();
    if (w < 0) continue;
    const auto idx = std::min(static_cast<std::size_t>(w), histogram.size() - 1);
    ++histogram[idx];
  }
  return histogram;
}

}  // namespace blam
