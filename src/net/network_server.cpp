#include "net/network_server.hpp"

#include <stdexcept>
#include <utility>

#include "audit/audit.hpp"
#include "energy/thermal.hpp"
#include "fault/fault_plan.hpp"
#include "mac/adr.hpp"
#include "net/gateway.hpp"
#include "net/node.hpp"
#include "sim/checkpoint.hpp"

namespace blam {

NetworkServer::NetworkServer(Simulator& sim, const DegradationModel& model,
                             Time dissemination_period)
    : sim_{sim},
      service_{model, kInsulatedBatteryC},
      noise_floor_125k_dbm_{noise_floor_dbm(125e3)} {
  recompute_process_ = std::make_unique<PeriodicProcess>(
      sim, dissemination_period, dissemination_period, [this] { recompute(); });
}

void NetworkServer::enable_adr(std::vector<std::uint32_t> node_ids) {
  adr_.emplace(AdrController::Config{}, std::move(node_ids));
}

void NetworkServer::enable_adaptive_theta(const ThetaController::Config& config) {
  theta_.emplace(config);
}

void NetworkServer::observe_snr(std::uint32_t node_id, double snr_db) {
  if (adr_.has_value()) adr_->observe(node_id, snr_db);
}

std::optional<AdrCommand> NetworkServer::adr_advice(std::uint32_t node_id,
                                                    const AdrCommand& current) const {
  if (!adr_.has_value()) return std::nullopt;
  return adr_->advise(node_id, current);
}

void NetworkServer::register_nodes(std::span<const std::uint32_t> node_ids) {
  service_.register_nodes(node_ids);
  if (report_faults_.has_value()) report_faults_->add_nodes(node_ids);
}

void NetworkServer::attach_fault_plan(const FaultPlan* faults) {
  faults_ = faults;
  if (faults != nullptr && faults->config().reports_enabled()) {
    report_faults_.emplace(*faults);
    ingest_sink_ = [this](std::uint32_t node_id, std::uint16_t report_seq,
                          std::uint8_t report_crc, std::span<const SocSample> samples) {
      service_.enqueue_report(node_id, report_seq, report_crc, samples);
    };
  }
}

void NetworkServer::flush_report_channel() {
  if (report_faults_.has_value()) report_faults_->flush(ingest_sink_);
  // Final barrier: anything still staged in the ingestion queue reaches the
  // ledger before end-of-run metrics/checkpoints read it.
  service_.drain_queue();
}

std::uint32_t NetworkServer::acquire_pending_slot() {
  if (!pending_free_.empty()) {
    const std::uint32_t slot = pending_free_.back();
    pending_free_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(pending_pool_.size());
  pending_pool_.emplace_back();
  return slot;
}

void NetworkServer::on_gateway_receive(Gateway& gateway, Node& node, const UplinkFrame& frame,
                                       const AirPacket& packet) {
  const std::uint64_t key = frame_key(frame);
  std::uint32_t slot = EventHandle::kNullSlot;
  for (const auto& [live_key, live_slot] : pending_live_) {
    if (live_key == key) {
      slot = live_slot;
      break;
    }
  }
  const bool inserted = slot == EventHandle::kNullSlot;
  if (inserted) {
    slot = acquire_pending_slot();
    pending_live_.emplace_back(key, slot);
    pending_pool_[slot].live = true;
    pending_pool_[slot].best_rx_dbm = 0.0;
  }
  PendingFrame& pending = pending_pool_[slot];
  if (inserted || packet.rx_power_dbm > pending.best_rx_dbm) {
    pending.gateway = &gateway;
    pending.node = &node;
    pending.frame = frame;
    pending.best_rx_dbm = packet.rx_power_dbm;
    pending.uplink_end = packet.end;
    pending.sf = packet.sf;
    pending.channel = packet.channel;
  }
  if (inserted) {
    // All copies end at the same instant (same airtime); 1 ms collects them
    // all while staying far inside the RX1 delay.
    pending.decide_event = sim_.schedule_in(Time::from_ms(1), [this, slot] { decide(slot); });
  }
}

void NetworkServer::decide(std::uint32_t slot) {
  PendingFrame& pending = pending_pool_[slot];
  if (!pending.live) return;
  pending.live = false;
  for (auto it = pending_live_.begin(); it != pending_live_.end(); ++it) {
    if (it->second == slot) {
      *it = pending_live_.back();
      pending_live_.pop_back();
      break;
    }
  }

  observe_snr(pending.frame.node_id, pending.best_rx_dbm - noise_floor_125k_dbm_);
  std::optional<double> theta_update;
  if (theta_.has_value()) {
    theta_update = theta_->on_delivery(pending.frame.node_id, pending.frame.seq);
  }
  if (!on_uplink(pending.frame)) {
    // Duplicate of an already-delivered packet: the device retransmitted
    // because its ACK was lost or unschedulable. The SoC report is ignored,
    // but the frame must still be acknowledged or the device will burn its
    // whole retransmission budget.
    if (metrics_ != nullptr) ++metrics_->gateway().duplicates;
  }
  pending.gateway->send_ack(*pending.node, pending.frame, pending.uplink_end, pending.sf,
                            pending.channel, theta_update);
  pending_free_.push_back(slot);
}

bool NetworkServer::on_uplink(const UplinkFrame& frame) {
  if (frame.node_id >= last_seq_.size()) {
    last_seq_.resize(static_cast<std::size_t>(frame.node_id) + 1, -1);
  }
  std::int64_t& seen = last_seq_[frame.node_id];
  if (seen >= 0) {
    // Sequence numbers increase monotonically per node; an equal or older
    // one is a duplicate (late retransmission).
    if (static_cast<std::int64_t>(frame.seq) <= seen) return false;
  }
  const std::int64_t prev_seen = seen;
  seen = frame.seq;
  if (audit_ != nullptr) {
    audit_->on_uplink_seq(frame.node_id, sim_.now(), static_cast<std::int64_t>(frame.seq),
                          prev_seen);
  }
  if (!frame.soc_report.empty()) {
    if (report_faults_.has_value()) {
      report_faults_->deliver(frame.node_id, frame.report_seq, frame.report_crc,
                              frame.soc_report, ingest_sink_);
    } else {
      service_.enqueue_report(frame.node_id, frame.report_seq, frame.report_crc,
                              frame.soc_report);
    }
  }
  return true;
}

double NetworkServer::w_for(std::uint32_t node_id) const {
  if (recomputes_ == 0) return 0.0;
  return service_.normalized_degradation(node_id);
}

void NetworkServer::checkpoint_state(StateWriter& w) {
  w.begin_section("server");
  w.put_u64(last_seq_.size());
  for (std::int64_t seq : last_seq_) w.put_i64(seq);
  w.put_u64(recomputes_);
  write_event(w, sim_, recompute_process_->pending_handle());

  w.put_u64(theta_.has_value() ? 1 : 0);
  if (theta_.has_value()) {
    const auto nodes = theta_->snapshot();
    w.put_u64(nodes.size());
    for (const ThetaController::NodeSnapshot& node : nodes) {
      w.put_u64(node.node_id);
      w.put_u64(node.last_seq);
      w.put_u64(node.has_seq ? 1 : 0);
      w.put_u64(node.delivered);
      w.put_u64(node.lost);
      w.put_double(node.theta);
    }
  }

  w.put_u64(adr_.has_value() ? 1 : 0);
  if (adr_.has_value()) {
    const auto nodes = adr_->snapshot();
    w.put_u64(nodes.size());
    for (const AdrController::NodeSnapshot& node : nodes) {
      w.put_u64(node.node_id);
      w.put_u64(node.snr_db.size());
      for (const double snr : node.snr_db) w.put_double(snr);
    }
  }

  w.put_u64(report_faults_.has_value() ? 1 : 0);
  if (report_faults_.has_value()) {
    const auto lanes = report_faults_->snapshot();
    w.put_u64(lanes.size());
    for (const ReportFaultChannel::LaneSnapshot& lane : lanes) {
      w.put_u64(lane.node_id);
      write_rng(w, lane.rng);
      w.put_u64(lane.holding ? 1 : 0);
      w.put_u64(lane.held_seq);
      w.put_u64(lane.held_crc);
      w.put_u64(lane.held_samples.size());
      for (const SocSample& sample : lane.held_samples) {
        write_time(w, sample.t);
        w.put_double(sample.soc);
      }
    }
    const ReportChannelCounters& c = report_faults_->counters();
    w.put_u64(c.delivered);
    w.put_u64(c.dropped);
    w.put_u64(c.duplicated);
    w.put_u64(c.reordered);
    w.put_u64(c.corrupted);
    w.put_u64(c.truncated);
  }

  w.put_u64(pending_live_.size());
  for (const auto& [key, slot] : pending_live_) {
    const PendingFrame& pending = pending_pool_[slot];
    w.put_u64(key);
    w.put_i64(pending.gateway->id());
    w.put_u64(pending.node->id());
    write_uplink_frame(w, pending.frame);
    w.put_double(pending.best_rx_dbm);
    write_time(w, pending.uplink_end);
    write_sf(w, pending.sf);
    w.put_i64(pending.channel);
    write_event(w, sim_, pending.decide_event);
  }
  w.end_section();
  service_.checkpoint_state(w);
}

void NetworkServer::restore_state(StateReader& r,
                                  const std::vector<std::unique_ptr<Gateway>>& gateways,
                                  const std::function<Node*(std::uint32_t)>& node_by_id) {
  r.begin_section("server");
  // Counts read off the stream never pre-size a container: each one grows
  // as its tokens arrive, so a forged count ends at the section trailer.
  last_seq_.clear();
  for (std::uint64_t i = 0, n = r.get_u64(); i < n; ++i) last_seq_.push_back(r.get_i64());
  recomputes_ = r.get_u64();
  if (const auto e = read_event(r)) recompute_process_->restore_arm(e->time, e->seq);

  const bool has_theta = r.get_u64() != 0;
  if (has_theta != theta_.has_value()) {
    throw std::runtime_error{"NetworkServer::restore_state: theta controller mismatch"};
  }
  if (has_theta) {
    std::vector<ThetaController::NodeSnapshot> nodes;
    for (std::uint64_t i = 0, n = r.get_u64(); i < n; ++i) {
      ThetaController::NodeSnapshot& node = nodes.emplace_back();
      node.node_id = static_cast<std::uint32_t>(r.get_u64());
      node.last_seq = static_cast<std::uint32_t>(r.get_u64());
      node.has_seq = r.get_u64() != 0;
      node.delivered = r.get_u64();
      node.lost = r.get_u64();
      node.theta = r.get_double();
    }
    theta_->restore(nodes);
  }

  const bool has_adr = r.get_u64() != 0;
  if (has_adr != adr_.has_value()) {
    throw std::runtime_error{"NetworkServer::restore_state: ADR controller mismatch"};
  }
  if (has_adr) {
    std::vector<AdrController::NodeSnapshot> nodes;
    for (std::uint64_t i = 0, n = r.get_u64(); i < n; ++i) {
      AdrController::NodeSnapshot& node = nodes.emplace_back();
      node.node_id = static_cast<std::uint32_t>(r.get_u64());
      for (std::uint64_t k = 0, m = r.get_u64(); k < m; ++k) node.snr_db.push_back(r.get_double());
    }
    adr_->restore(nodes);
  }

  const bool has_report_faults = r.get_u64() != 0;
  if (has_report_faults != report_faults_.has_value()) {
    throw std::runtime_error{"NetworkServer::restore_state: report fault channel mismatch"};
  }
  if (has_report_faults) {
    std::vector<ReportFaultChannel::LaneSnapshot> lanes;
    for (std::uint64_t i = 0, n = r.get_u64(); i < n; ++i) {
      ReportFaultChannel::LaneSnapshot& lane = lanes.emplace_back();
      lane.node_id = static_cast<std::uint32_t>(r.get_u64());
      lane.rng = read_rng(r);
      lane.holding = r.get_u64() != 0;
      lane.held_seq = static_cast<std::uint16_t>(r.get_u64());
      lane.held_crc = static_cast<std::uint8_t>(r.get_u64());
      for (std::uint64_t k = 0, m = r.get_u64(); k < m; ++k) {
        const Time t = read_time(r);
        lane.held_samples.push_back(SocSample{t, r.get_double()});
      }
    }
    ReportChannelCounters counters;
    counters.delivered = r.get_u64();
    counters.dropped = r.get_u64();
    counters.duplicated = r.get_u64();
    counters.reordered = r.get_u64();
    counters.corrupted = r.get_u64();
    counters.truncated = r.get_u64();
    report_faults_->restore(lanes, counters);
  }

  pending_pool_.clear();
  pending_free_.clear();
  pending_live_.clear();
  const std::uint64_t n_pending = r.get_u64();
  for (std::uint64_t i = 0; i < n_pending; ++i) {
    const std::uint64_t key = r.get_u64();
    const std::uint32_t slot = acquire_pending_slot();
    pending_live_.emplace_back(key, slot);
    PendingFrame& pending = pending_pool_[slot];
    pending.live = true;
    const std::int64_t gateway_id = r.get_i64();
    pending.gateway = nullptr;
    for (const auto& gateway : gateways) {
      if (gateway->id() == gateway_id) {
        pending.gateway = gateway.get();
        break;
      }
    }
    if (pending.gateway == nullptr) {
      throw std::runtime_error{"NetworkServer::restore_state: unknown downlink gateway"};
    }
    pending.node = node_by_id(static_cast<std::uint32_t>(r.get_u64()));
    read_uplink_frame(r, pending.frame);
    pending.best_rx_dbm = r.get_double();
    pending.uplink_end = read_time(r);
    pending.sf = read_sf(r);
    pending.channel = static_cast<int>(r.get_i64());
    if (const auto e = read_event(r)) {
      pending.decide_event = sim_.schedule_at_seq(e->time, e->seq, [this, slot] { decide(slot); });
    }
  }
  r.end_section();
  service_.restore_state(r);
}

void NetworkServer::recompute() {
  if (faults_ != nullptr && faults_->gateway_out(sim_.now())) {
    // Backhaul down at the dissemination instant: nodes keep their stale
    // w_u until the next period (the staleness-aware fallback on the device
    // covers the gap).
    if (metrics_ != nullptr) ++metrics_->gateway().recomputes_skipped;
    return;
  }
  service_.recompute(sim_.now());
  ++recomputes_;
  if (audit_ != nullptr && truth_probe_ && faults_ == nullptr) {
    // Feedback-consistency audit (observe-only): on a fault-free
    // run the ledger's per-node estimate must stay close to the node's own
    // tracker. With any fault plan active, divergence is injected behavior,
    // not a bug — the check stays off.
    const Time now = sim_.now();
    for (const std::uint32_t id : service_.ids()) {
      audit_->on_feedback_ledger(id, now, service_.degradation(id), truth_probe_(id, now));
    }
  }
}

}  // namespace blam
