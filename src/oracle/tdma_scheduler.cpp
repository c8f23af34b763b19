#include "oracle/tdma_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/dif.hpp"

namespace blam {

namespace {

struct PacketRef {
  int gen_slot;
  double w_u;
  int node;
  int packet;
};

void validate(const OracleConfig& config, const std::vector<OracleNodeSpec>& nodes) {
  if (config.horizon_slots <= 0) throw std::invalid_argument{"oracle: horizon must be positive"};
  if (config.omega <= 0) throw std::invalid_argument{"oracle: omega must be positive"};
  if (config.utility == nullptr) throw std::invalid_argument{"oracle: utility required"};
  if (config.w_b < 0.0 || config.w_b > 1.0) throw std::invalid_argument{"oracle: w_b in [0,1]"};
  for (const OracleNodeSpec& n : nodes) {
    if (n.period_slots <= 0) throw std::invalid_argument{"oracle: period_slots must be positive"};
    if (n.harvest.size() != static_cast<std::size_t>(config.horizon_slots)) {
      throw std::invalid_argument{"oracle: harvest length must equal horizon"};
    }
    if (n.tx_cost <= Energy::zero()) {
      throw std::invalid_argument{"oracle: tx_cost must be positive"};
    }
    if (n.w_u < 0.0 || n.w_u > 1.0) throw std::invalid_argument{"oracle: w_u in [0,1]"};
  }
}

}  // namespace

OracleResult TdmaScheduler::schedule(const OracleConfig& config,
                                     const std::vector<OracleNodeSpec>& nodes) const {
  validate(config, nodes);

  // Global DIF normalizer: worst transmission cost in the network.
  Energy max_tx = Energy::zero();
  for (const OracleNodeSpec& n : nodes) max_tx = std::max(max_tx, n.tx_cost);

  // Enumerate packets: one per full period inside the horizon (the paper's
  // constraint 10 defers the trailing partial period to the next run).
  std::vector<PacketRef> packets;
  for (std::size_t u = 0; u < nodes.size(); ++u) {
    int packet = 0;
    for (int g = 0; g + nodes[u].period_slots <= config.horizon_slots;
         g += nodes[u].period_slots) {
      packets.push_back(PacketRef{g, nodes[u].w_u, static_cast<int>(u), packet++});
    }
  }
  // Time order; within a generation batch the most degraded node picks first
  // (priority form of the min-max degradation objective).
  std::stable_sort(packets.begin(), packets.end(), [](const PacketRef& a, const PacketRef& b) {
    if (a.gen_slot != b.gen_slot) return a.gen_slot < b.gen_slot;
    return a.w_u > b.w_u;
  });

  OracleResult result;
  result.slot_load.assign(static_cast<std::size_t>(config.horizon_slots), 0);
  result.node_utility.assign(nodes.size(), 0.0);
  result.node_drops.assign(nodes.size(), 0);
  result.node_mean_soc.assign(nodes.size(), 0.0);

  // Per-node rolling battery state at the start of its next unscheduled
  // period, plus counters for the utility mean and SoC time-average.
  std::vector<Energy> stored(nodes.size());
  std::vector<int> scheduled_count(nodes.size(), 0);
  std::vector<double> soc_integral(nodes.size(), 0.0);
  for (std::size_t u = 0; u < nodes.size(); ++u) {
    stored[u] = std::min(nodes[u].initial, nodes[u].storage_cap);
  }

  for (const PacketRef& p : packets) {
    const OracleNodeSpec& node = nodes[static_cast<std::size_t>(p.node)];
    const auto u = static_cast<std::size_t>(p.node);
    const int tau = node.period_slots;

    // Cumulative energy available by each slot of the period (Eq. 20 with
    // the theta cap applied to carried energy, as in Algorithm 1).
    std::vector<Energy> available(static_cast<std::size_t>(tau));
    Energy carried = std::min(stored[u], node.storage_cap);
    for (int i = 0; i < tau; ++i) {
      const auto s = static_cast<std::size_t>(p.gen_slot + i);
      available[static_cast<std::size_t>(i)] = carried + node.harvest[s];
      carried = std::min(available[static_cast<std::size_t>(i)], node.storage_cap);
    }

    int best = -1;
    double best_gamma = 0.0;
    double best_mu = 0.0;
    for (int i = 0; i < tau; ++i) {
      const auto s = static_cast<std::size_t>(p.gen_slot + i);
      if (result.slot_load[s] >= config.omega) continue;            // constraint 11
      if (available[static_cast<std::size_t>(i)] < node.tx_cost) continue;  // constraint 20
      const double mu = config.utility->value(i, tau);
      const double dif = degradation_impact_factor(node.tx_cost, node.harvest[s], max_tx);
      const double gamma = (1.0 - mu) + p.w_u * dif * config.w_b;
      if (best < 0 || gamma < best_gamma) {
        best = i;
        best_gamma = gamma;
        best_mu = mu;
      }
    }

    OracleAssignment assignment;
    assignment.node = p.node;
    assignment.packet = p.packet;
    if (best >= 0) {
      assignment.slot = p.gen_slot + best;
      assignment.utility = best_mu;
      assignment.gamma = best_gamma;
      ++result.slot_load[static_cast<std::size_t>(assignment.slot)];
      result.node_utility[u] += best_mu;
      ++scheduled_count[u];
    } else {
      ++result.node_drops[u];
    }
    result.assignments.push_back(assignment);

    // Roll the battery through this period (Eq. 5 with the charge cap).
    for (int i = 0; i < tau; ++i) {
      const auto s = static_cast<std::size_t>(p.gen_slot + i);
      Energy level = stored[u] + node.harvest[s];
      if (best == i) level = level >= node.tx_cost ? level - node.tx_cost : Energy::zero();
      stored[u] = std::min(level, node.storage_cap);
      soc_integral[u] += node.storage_cap > Energy::zero() ? stored[u] / node.storage_cap : 0.0;
    }
  }

  for (std::size_t u = 0; u < nodes.size(); ++u) {
    if (scheduled_count[u] > 0) result.node_utility[u] /= scheduled_count[u];
    const int slots_seen =
        (config.horizon_slots / nodes[u].period_slots) * nodes[u].period_slots;
    if (slots_seen > 0) result.node_mean_soc[u] = soc_integral[u] / slots_seen;
  }
  return result;
}

}  // namespace blam
