#include "net/gateway.hpp"

#include <stdexcept>

#include "fault/fault_plan.hpp"
#include "lora/airtime.hpp"
#include "mac/adr.hpp"
#include "net/node.hpp"
#include "sim/checkpoint.hpp"

namespace blam {

Gateway::Gateway(int id, Position position, Simulator& sim, NetworkServer& server,
                 Metrics& metrics, const ChannelPlan& plan, const Config& config)
    : id_{id},
      fault_id_{id},
      position_{position},
      sim_{sim},
      server_{server},
      metrics_{metrics},
      plan_{plan},
      config_{config},
      ack_planner_{plan} {
  TxParams rx1;
  rx1.sf = SpreadingFactor::kSF12;
  rx1.bandwidth_hz = kRx1BandwidthHz;
  rx1.payload_bytes = 1;  // degradation byte

  TxParams rx2 = rx1;
  rx2.sf = plan_.rx2_spreading_factor();
  rx2.bandwidth_hz = plan_.rx2_bandwidth_hz();

  max_ack_end_delay_ = std::max(kRx1Delay + time_on_air(rx1.with_auto_ldro()),
                                kRx2Delay + time_on_air(rx2.with_auto_ldro()));
}

void Gateway::on_uplink(Node& node, const UplinkFrame& frame, const TxParams& params, int channel,
                        double rx_power_dbm) {
  const Time now = sim_.now();
  GatewayMetrics& gm = metrics_.gateway();
  ++gm.arrivals;

  // Audibility floor: below it the packet neither decodes (it is under every
  // SF's sensitivity — validate() enforces floor <= SF12 sensitivity) nor
  // enters the interference tracker. This bounds the collision domain so the
  // shard planner can split deployments exactly; the default floor is
  // unreachable and leaves legacy results bit-identical. Checked before the
  // outage: a packet the radio could never hear is classified the same way
  // whether or not the backhaul is up, which is what lets the sharded
  // engine compensate for foreign-shard copies with a pure counter bump.
  if (rx_power_dbm < config_.interference_floor_dbm) {
    ++gm.lost_under_sensitivity;
    return;
  }

  // Fault-injected outage: the gateway radio is dead, so nothing is
  // received here and nothing needs to enter the interference tracker (a
  // dead receiver has no receptions to jam).
  if (faults_ != nullptr && faults_->gateway_out(now)) {
    ++gm.lost_outage;
    return;
  }

  AirPacket packet;
  packet.id = next_packet_id_++;
  packet.start = now;
  packet.end = now + timing_.time_on_air(params);
  packet.rx_power_dbm = rx_power_dbm;
  packet.sf = params.sf;
  packet.channel = channel;

  // The packet radiates regardless of whether the gateway can lock onto it.
  interference_.add(packet);
  interference_.prune(now);
  ack_planner_.prune(now - Time::from_seconds(10.0));

  if (rx_power_dbm < gateway_sensitivity_dbm(params.sf)) {
    ++gm.lost_under_sensitivity;
    return;
  }
  if (ack_planner_.overlaps_tx(now, packet.end)) {
    // Half-duplex: the gateway transmits (or will transmit) during this
    // reception; it cannot lock.
    ++gm.lost_half_duplex;
    return;
  }
  if (busy_paths_ >= kDemodPaths) {
    ++gm.lost_no_demod_path;
    return;
  }

  ++busy_paths_;
  // The frame (with its SoC-report vector) parks in a pooled slot and the
  // callback captures only {this, slot}: it fits the event queue's inline
  // capture budget, and the slot's vector capacity is reused across packets.
  const std::uint32_t slot = acquire_rx_slot();
  PendingReception& rx = rx_pool_[slot];
  rx.node = &node;
  rx.frame = frame;
  rx.packet = packet;
  rx.finish_event = sim_.schedule_at(packet.end, [this, slot] { finish_reception(slot); });
}

std::uint32_t Gateway::acquire_rx_slot() {
  if (!rx_free_.empty()) {
    const std::uint32_t slot = rx_free_.back();
    rx_free_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(rx_pool_.size());
  rx_pool_.emplace_back();
  return slot;
}

std::uint32_t Gateway::acquire_ack_slot() {
  if (!ack_free_.empty()) {
    const std::uint32_t slot = ack_free_.back();
    ack_free_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(ack_pool_.size());
  ack_pool_.emplace_back();
  return slot;
}

void Gateway::finish_reception(std::uint32_t rx_slot) {
  PendingReception& rx = rx_pool_[rx_slot];
  Node& node = *rx.node;
  const AirPacket packet = rx.packet;
  GatewayMetrics& gm = metrics_.gateway();
  --busy_paths_;

  // An ACK booked after this reception started would have destroyed it.
  if (ack_planner_.overlaps_tx(packet.start, packet.end)) {
    ++gm.lost_half_duplex;
    rx_free_.push_back(rx_slot);
    return;
  }
  if (!interference_.survives(packet)) {
    ++gm.lost_interference;
    rx_free_.push_back(rx_slot);
    return;
  }
  ++gm.received;

  // The server aggregates copies of this frame across gateways and picks
  // the downlink gateway (strongest copy).
  server_.on_gateway_receive(*this, node, rx.frame, packet);
  rx_free_.push_back(rx_slot);
}

void Gateway::send_ack(Node& node, const UplinkFrame& frame, Time uplink_end, SpreadingFactor sf,
                       int channel, std::optional<double> theta_update) {
  GatewayMetrics& gm = metrics_.gateway();

  // An outage can begin between the uplink's reception and the server's
  // downlink decision; the gateway then never transmits the ACK.
  if (faults_ != nullptr && faults_->gateway_out(sim_.now())) {
    ++gm.acks_lost_outage;
    return;
  }

  AckFrame ack;
  ack.node_id = frame.node_id;
  ack.seq = frame.seq;
  ack.has_degradation = server_.dissemination_ready();
  ack.normalized_degradation = server_.w_for(frame.node_id);
  ack.adr = server_.adr_advice(frame.node_id, node.radio_params());
  ack.theta = theta_update;

  const auto plan = ack_planner_.plan(uplink_end, sf, channel, ack.total_bytes());
  if (!plan) {
    ++gm.acks_unschedulable;
    return;  // the device will retransmit
  }

  // Downlink link budget: does the ACK reach the device?
  const double rx_at_device = kDownlinkTxDbm - node.link_loss_db(id_);
  if (rx_at_device < device_sensitivity_dbm(plan->sf)) {
    ++gm.acks_undecodable;
    return;
  }

  // Gilbert-Elliott downlink burst loss: the gateway transmits (the TX
  // chain stays booked, so the half-duplex ledger is unchanged) but the
  // device fails to decode.
  if (faults_ != nullptr && faults_->downlink_lost(fault_id_, plan->tx_end)) {
    ++gm.acks_lost_channel;
    return;
  }

  ++gm.acks_sent;
  if (plan->rx2) ++gm.acks_rx2;
  const std::uint32_t slot = acquire_ack_slot();
  PendingAck& pending = ack_pool_[slot];
  pending.node = &node;
  pending.ack = ack;
  pending.end = plan->tx_end;
  pending.deliver_event = sim_.schedule_at(plan->tx_end, [this, slot] { deliver_ack(slot); });
}

namespace {

void write_air_packet(StateWriter& w, const AirPacket& packet) {
  w.put_u64(packet.id);
  write_time(w, packet.start);
  write_time(w, packet.end);
  w.put_double(packet.rx_power_dbm);
  write_sf(w, packet.sf);
  w.put_i64(packet.channel);
}

AirPacket read_air_packet(StateReader& r) {
  AirPacket packet;
  packet.id = r.get_u64();
  packet.start = read_time(r);
  packet.end = read_time(r);
  packet.rx_power_dbm = r.get_double();
  packet.sf = read_sf(r);
  packet.channel = static_cast<int>(r.get_i64());
  return packet;
}

void write_ack_frame(StateWriter& w, const AckFrame& ack) {
  w.put_u64(ack.node_id);
  w.put_u64(ack.seq);
  w.put_u64(ack.has_degradation ? 1 : 0);
  w.put_double(ack.normalized_degradation);
  w.put_u64(ack.adr.has_value() ? 1 : 0);
  if (ack.adr.has_value()) {
    write_sf(w, ack.adr->sf);
    w.put_double(ack.adr->tx_power_dbm);
  }
  w.put_u64(ack.theta.has_value() ? 1 : 0);
  if (ack.theta.has_value()) w.put_double(*ack.theta);
}

AckFrame read_ack_frame(StateReader& r) {
  AckFrame ack;
  ack.node_id = static_cast<std::uint32_t>(r.get_u64());
  ack.seq = static_cast<std::uint32_t>(r.get_u64());
  ack.has_degradation = r.get_u64() != 0;
  ack.normalized_degradation = r.get_double();
  if (r.get_u64() != 0) {
    AdrCommand adr;
    adr.sf = read_sf(r);
    adr.tx_power_dbm = r.get_double();
    ack.adr = adr;
  }
  if (r.get_u64() != 0) ack.theta = r.get_double();
  return ack;
}

}  // namespace

void Gateway::checkpoint_state(StateWriter& w) const {
  w.begin_section("gateway");
  w.put_i64(id_);
  w.put_i64(fault_id_);
  w.put_i64(busy_paths_);
  w.put_u64(next_packet_id_);

  const auto interference = interference_.live();
  w.put_u64(interference.size());
  for (const AirPacket& packet : interference) write_air_packet(w, packet);

  const auto reservations = ack_planner_.live();
  w.put_u64(reservations.size());
  for (const AckPlanner::Interval& interval : reservations) {
    write_time(w, interval.start);
    write_time(w, interval.end);
  }

  // In-flight receptions/ACKs: a pool slot is live iff its event handle
  // still resolves (fired or recycled slots have stale handles).
  std::uint64_t live_rx = 0;
  for (const PendingReception& rx : rx_pool_) {
    if (sim_.lookup(rx.finish_event).has_value()) ++live_rx;
  }
  w.put_u64(live_rx);
  for (const PendingReception& rx : rx_pool_) {
    const auto event = sim_.lookup(rx.finish_event);
    if (!event.has_value()) continue;
    w.put_u64(rx.node->id());
    write_uplink_frame(w, rx.frame);
    write_air_packet(w, rx.packet);
    write_time(w, event->time);
    w.put_u64(event->seq);
  }

  std::uint64_t live_acks = 0;
  for (const PendingAck& pending : ack_pool_) {
    if (sim_.lookup(pending.deliver_event).has_value()) ++live_acks;
  }
  w.put_u64(live_acks);
  for (const PendingAck& pending : ack_pool_) {
    const auto event = sim_.lookup(pending.deliver_event);
    if (!event.has_value()) continue;
    w.put_u64(pending.node->id());
    write_ack_frame(w, pending.ack);
    write_time(w, pending.end);
    write_time(w, event->time);
    w.put_u64(event->seq);
  }
  w.end_section();
}

void Gateway::restore_state(StateReader& r,
                            const std::function<Node*(std::uint32_t)>& node_by_id) {
  r.begin_section("gateway");
  if (r.get_i64() != id_ || r.get_i64() != fault_id_) {
    throw std::runtime_error{"Gateway::restore_state: checkpoint is for a different gateway"};
  }
  busy_paths_ = static_cast<int>(r.get_i64());
  next_packet_id_ = r.get_u64();

  std::vector<AirPacket> interference;
  for (std::uint64_t i = 0, n = r.get_u64(); i < n; ++i) {
    interference.push_back(read_air_packet(r));
  }
  interference_.restore_live(interference);

  std::vector<AckPlanner::Interval> reservations;
  for (std::uint64_t i = 0, n = r.get_u64(); i < n; ++i) {
    AckPlanner::Interval& interval = reservations.emplace_back();
    interval.start = read_time(r);
    interval.end = read_time(r);
  }
  ack_planner_.restore_live(reservations);

  // Pool slots renumber freely on restore: the rebuilt callbacks capture
  // the new indices and the replayed events keep their original seqs, so
  // the simulation cannot observe the renumbering.
  rx_pool_.clear();
  rx_free_.clear();
  const std::uint64_t live_rx = r.get_u64();
  for (std::uint64_t i = 0; i < live_rx; ++i) {
    const std::uint32_t slot = acquire_rx_slot();
    PendingReception& rx = rx_pool_[slot];
    rx.node = node_by_id(static_cast<std::uint32_t>(r.get_u64()));
    read_uplink_frame(r, rx.frame);
    rx.packet = read_air_packet(r);
    const Time at = read_time(r);
    const std::uint64_t seq = r.get_u64();
    rx.finish_event = sim_.schedule_at_seq(at, seq, [this, slot] { finish_reception(slot); });
  }

  ack_pool_.clear();
  ack_free_.clear();
  const std::uint64_t live_acks = r.get_u64();
  for (std::uint64_t i = 0; i < live_acks; ++i) {
    const std::uint32_t slot = acquire_ack_slot();
    PendingAck& pending = ack_pool_[slot];
    pending.node = node_by_id(static_cast<std::uint32_t>(r.get_u64()));
    pending.ack = read_ack_frame(r);
    pending.end = read_time(r);
    const Time at = read_time(r);
    const std::uint64_t seq = r.get_u64();
    pending.deliver_event = sim_.schedule_at_seq(at, seq, [this, slot] { deliver_ack(slot); });
  }
  r.end_section();
}

void Gateway::deliver_ack(std::uint32_t ack_slot) {
  PendingAck& pending = ack_pool_[ack_slot];
  Node* node = pending.node;
  const AckFrame ack = pending.ack;
  const Time end = pending.end;
  ack_free_.push_back(ack_slot);
  node->receive_ack(ack, end);
}

}  // namespace blam
