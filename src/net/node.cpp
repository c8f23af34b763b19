#include "net/node.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "fault/fault_plan.hpp"
#include "net/gateway.hpp"
#include "sim/checkpoint.hpp"

namespace blam {

// The event queue prefetches this many bytes of a Node ahead of its events.
static_assert(sizeof(Node) <= EventQueue::kTargetLines * 64,
              "EventQueue::kTargetLines must cover a Node");

namespace {

// Boot state of charge, before the policy's theta clamp: half full, the
// value every committed figure starts from.
constexpr double kInitialSoc = 0.5;
// Uniform retransmission backoff once the RX2 window closes without an ACK.
constexpr Time kRetxBackoffMin = Time::from_seconds(1.0);
constexpr Time kRetxBackoffMax = Time::from_seconds(3.0);
// How long a crashed node stays dark while it reboots.
constexpr Time kRebootDuration = Time::from_minutes(10.0);
// Both class-A receive windows, listened through after every transmission.
const Energy kListenEnergy = kSx1276.rx_power() * (kRxWindowDuration * std::int64_t{2});

}  // namespace

Node::Node(const Init& init, Shared& shared, const SolarTrace& trace,
           const DegradationModel& model, NodeMetrics& metrics, Rng rng)
    : id_{init.id},
      position_{init.position},
      period_{init.period},
      n_windows_{shared.config->windows_for(init.period)},
      inaudible_gateways_{init.inaudible_gateways},
      links_{init.audible},
      min_link_loss_db_{init.min_link_loss_db},
      shared_{&shared},
      metrics_{&metrics},
      battery_{init.battery_capacity, std::min(kInitialSoc, shared.config->theta)},
      harvester_{trace, init.panel_scale},
      switch_{battery_, shared.policy->soc_cap()},
      tracker_{model, kInsulatedBatteryC},
      etx_ewma_{kEtxEwmaBeta},
      retx_estimator_{static_cast<std::size_t>(n_windows_), kMaxTransmissions - 1},
      rng_{rng} {
  const ScenarioConfig& config = *shared.config;
  tx_params_.sf = init.sf;
  tx_params_.bandwidth_hz = 125e3;
  tx_params_.payload_bytes = kPayloadBytes;
  tx_params_ = tx_params_.with_auto_ldro();
  single_attempt_energy_ = attempt_demand(tx_params_);
  if (config.supercap_tx_buffer > 0.0) {
    supercap_.emplace(single_attempt_energy_ * config.supercap_tx_buffer);
    switch_.attach_supercap(&*supercap_);
  }
  // DIF normalizer (paper's E_tx_max): the worst case a packet can cost is
  // the full retransmission budget. Normalizing by a single attempt would
  // saturate DIF at 1 whenever any retransmissions are expected, erasing
  // the per-window discrimination Algorithm 1 relies on.
  max_packet_energy_ = single_attempt_energy_ * kMaxTransmissions;
  harvester_.resample_jitter(rng_);
  metrics_->window_counts.assign(static_cast<std::size_t>(n_windows_), 0);
}

void Node::attach_fault_plan(const FaultPlan* faults) {
  faults_ = faults;
  if (faults_ != nullptr && faults_->config().crashes_enabled()) {
    crash_rng_ = faults_->crash_stream(id_);
  }
}

void Node::start() {
  record_soc(Time::zero());
  period_event_ = sim().schedule_at(Time::zero(), [this] { on_period_start(); });
  if (crash_rng_.has_value()) schedule_next_crash();
}

void Node::schedule_next_crash() {
  const double mean_days = 365.25 / faults_->config().crash_per_year;
  const Time gap = Time::from_days(crash_rng_->exponential(mean_days));
  crash_event_ = sim().schedule_in(gap, [this] { on_crash(); });
}

void Node::on_crash() {
  const Time now = sim().now();
  ++metrics_->crashes;
  account_to(now);
  if (pending_.active) {
    // The in-flight packet dies with the MCU (latency penalty, no history
    // update — the histogram it would update is being wiped anyway).
    ++metrics_->exhausted;
    abort_packet(/*record_history=*/false);
  }
  // Volatile state is gone; everything below re-warms from boot defaults.
  // The DegradationTracker survives: it is the simulator's ground truth of
  // the physical battery, not MCU memory.
  etx_ewma_ = Ewma{kEtxEwmaBeta};
  retx_estimator_.reset();
  w_u_ = 0.0;
  last_w_update_ = now;  // the staleness clock restarts at reboot
  consecutive_ackless_ = 0;
  has_samples_ = false;
  report_seq_ = 0;  // volatile counter: its reset is the gateway's reboot signal
  last_report_packet_ = 0;
  rebooting_until_ = now + kRebootDuration;
  schedule_next_crash();
}

Energy Node::attempt_demand(const TxParams& params) const {
  return shared_->scratch.timing.tx_energy(params) + kListenEnergy;
}

Time Node::attempt_span(const TxParams& params) const {
  return shared_->scratch.timing.time_on_air(params) + kRx2Delay + kRxWindowDuration;
}

double Node::link_loss_db(int gateway_id) const {
  for (const Link& link : links_) {
    if (link.gateway == gateway_id) return link.loss_db;
  }
  throw std::out_of_range{"Node::link_loss_db: gateway out of this node's reach"};
}

void Node::account_to(Time now) {
  if (now <= last_account_) return;
  const Time dt = now - last_account_;
  if (supercap_.has_value()) {
    const Energy before = supercap_->stored();
    supercap_->leak(dt);
    if (audit_ != nullptr) audit_->on_storage_loss(id_, now, before - supercap_->stored());
  }
  const Energy harvest = harvest_between(last_account_, now);
  const Energy demand = kSx1276.sleep_power() * dt;
  apply_flow(harvest, demand, now);
  last_account_ = now;
}

PowerFlow Node::apply_flow(Energy harvest, Energy demand, Time at) {
  if (audit_ == nullptr) return switch_.apply(harvest, demand);
  const Energy before = total_stored();
  const PowerFlow flow = switch_.apply(harvest, demand);
  const double min_eff = supercap_.has_value() ? kSupercapChargeEfficiency : 1.0;
  audit_->on_energy_flow(id_, at, harvest, demand, flow, before, total_stored(), min_eff);
  return flow;
}

Energy Node::harvest_between(Time t0, Time t1) const {
  if (faults_ == nullptr) return harvester_.energy_between(t0, t1);
  return faults_->scaled_harvest(harvester_, t0, t1);
}

void Node::record_soc(Time t) {
  const double soc = battery_.soc();
  if (audit_ != nullptr) audit_->on_soc(id_, t, soc, switch_.soc_cap());
  tracker_.record(t, soc);
  latest_sample_ = SocSample{t, soc};
  if (!has_samples_) {
    period_start_sample_ = latest_sample_;
    has_samples_ = true;
  }
}

void Node::update_capacity_fade(Time now) {
  if (now - last_fade_update_ < Time::from_days(1.0)) return;
  const double degradation = tracker_.degradation(now);
  const Energy before = battery_.stored();
  battery_.set_degradation(degradation);
  if (audit_ != nullptr) {
    // The fade clamp may shed stored charge that no longer fits the shrunken
    // capacity; the ledger must see it or the continuity check drifts.
    audit_->on_storage_loss(id_, now, before - battery_.stored());
    audit_->on_degradation(id_, now, degradation);
  }
  last_fade_update_ = now;
}

void Node::on_period_start() {
  const Time now = sim().now();
  period_event_ = sim().schedule_at(now + period_, [this] { on_period_start(); });

  account_to(now);
  // A previous packet's attempt may have pre-accounted energy past this
  // boundary (its RX windows straddle it); the battery state is then only
  // known at last_account_, so sample there, never before.
  const Time sample_at = std::max(now, last_account_);
  if (!shared_->thermal->config().insulated) {
    tracker_.set_temperature(sample_at, shared_->thermal->at(now));
  }
  update_capacity_fade(now);
  harvester_.resample_jitter(rng_);
  record_soc(sample_at);
  period_start_sample_ = latest_sample_;

  if (pending_.active) {
    // The previous packet's ladder spilled past the period boundary
    // (possible when a late window plus the full retransmission ladder
    // crosses it): fail the old packet and kill its scheduled events.
    ++metrics_->exhausted;
    if (pending_.transmissions > 0) ++consecutive_ackless_;
    if (faults_ != nullptr && faults_->gateway_out(now)) ++metrics_->lost_in_outage;
    abort_packet(/*record_history=*/true);
  }

  if (now < rebooting_until_) {
    // Crash fault: the MCU is still rebooting; the sample is taken but
    // never leaves the device.
    ++metrics_->generated;
    ++metrics_->reboot_drops;
    metrics_->latency_s.add(period_.seconds());
    pending_ = Pending{};
    pending_.seq = next_seq_++;
    return;
  }

  ++metrics_->generated;
  const Time window = config().forecast_window;

  WindowContext ctx;
  ctx.n_windows = n_windows_;
  ctx.window_length = window;
  ctx.period_start = now;
  ctx.battery = battery_.stored();
  ctx.battery_capacity = battery_.original_capacity();
  ctx.soc_cap = switch_.soc_cap();
  ctx.w_u = w_u_;
  ctx.w_u_age_periods =
      (now - last_w_update_).seconds() / config().dissemination_period.seconds();
  ctx.stale_feedback_k = config().stale_feedback_k;
  ctx.w_b = config().w_b;
  if (policy().reports_soc()) {
    metrics_->w_age_s.add((now - last_w_update_).seconds());
  }
  ctx.max_tx = max_packet_energy_;
  ctx.utility = shared_->utility;
  ctx.workspace = &shared_->scratch.selector;
  if (policy().needs_forecasts()) {
    std::vector<Energy>& harvest = shared_->scratch.harvest;
    std::vector<Energy>& cost = shared_->scratch.cost;
    cost.clear();
    const double base_estimate = etx_ewma_.value_or(single_attempt_energy_.joules());
    // The paper's on-sensor forecaster is accurate within a window, so the
    // forecast is the harvester's own window sweep.
    harvest.resize(static_cast<std::size_t>(n_windows_));
    harvester_.energy_windows(now, window, n_windows_, harvest.data());
    for (int w = 0; w < n_windows_; ++w) {
      if (faults_ != nullptr) {
        // The short-horizon forecaster sees the actual sky, so a drought
        // shows up in its predictions too.
        const Time w0 = now + window * std::int64_t{w};
        const Time w1 = now + window * std::int64_t{w + 1};
        harvest[static_cast<std::size_t>(w)] =
            harvest[static_cast<std::size_t>(w)] * faults_->drought_factor(w0, w1);
      }
      cost.push_back(Energy::from_joules(
          base_estimate * retx_estimator_.expected_transmissions(static_cast<std::size_t>(w))));
    }
    ctx.harvest_forecast = harvest;
    ctx.tx_cost = cost;
  }

  const MacDecision decision = policy().select_window(ctx);
  if (!decision.transmit) {
    ++metrics_->policy_drops;
    metrics_->latency_s.add(period_.seconds());
    pending_ = Pending{};
    pending_.seq = next_seq_++;
    return;
  }

  pending_ = Pending{};
  pending_.active = true;
  pending_.seq = next_seq_++;
  pending_.generated_at = now;
  pending_.window = decision.window;
  metrics_->count_window(decision.window);

  // Transmission time inside the window: LoRaWAN sends immediately (pure
  // ALOHA); the proposed MAC randomizes within the window to decluster
  // (paper Sec. III-B, "Network dynamics and channel access").
  Time offset = Time::zero();
  if (policy().needs_forecasts()) {
    // Slack accounts for the frame as actually sent (SoC report included).
    TxParams worst = tx_params_;
    worst.payload_bytes = kPayloadBytes + 4;
    const Time slack = window - attempt_span(worst);
    if (slack > Time::zero()) {
      offset = Time::from_us(rng_.uniform_int(0, slack.us()));
    }
  }
  const Time tx_at = now + window * std::int64_t{decision.window} + offset;
  window_tx_ = sim().schedule_at(tx_at, [this] { start_attempt(); });
}

const UplinkFrame& Node::build_frame() {
  UplinkFrame& frame = shared_->scratch.frame;
  frame.node_id = id_;
  frame.seq = pending_.seq;
  frame.attempt = pending_.transmissions;
  frame.generated_at = pending_.generated_at;
  frame.selected_window = pending_.window;
  frame.app_payload_bytes = kPayloadBytes;
  frame.confirmed = true;
  frame.soc_report.clear();
  if (policy().reports_soc() && has_samples_) {
    frame.soc_report.push_back(period_start_sample_);
    if (latest_sample_.t > period_start_sample_.t) frame.soc_report.push_back(latest_sample_);
    // One report generation per packet: retransmissions reuse the sequence
    // (their refreshed trailing sample is covered by a refreshed CRC), so
    // the gateway's packet-level dedup and the ledger's report-level dedup
    // agree on what counts as "the same report".
    if (pending_.seq != last_report_packet_) {
      ++report_seq_;
      last_report_packet_ = pending_.seq;
    }
    frame.report_seq = report_seq_;
    frame.report_crc = report_checksum(frame.report_seq, frame.soc_report);
  } else {
    frame.report_seq = 0;
    frame.report_crc = 0;
  }
  return frame;
}

void Node::start_attempt() {
  if (!pending_.active) return;  // packet resolved while this event was in flight
  pending_.retx = EventHandle{};
  const Time now = sim().now();

  account_to(now);

  const UplinkFrame& frame = build_frame();
  TxParams params = tx_params_;
  params.payload_bytes = frame.total_bytes();

  const Energy demand = attempt_demand(params);
  const Time span = attempt_span(params);
  const Energy harvest = harvest_between(now, now + span);
  const PowerFlow flow = apply_flow(harvest, demand, now);
  last_account_ = now + span;
  record_soc(last_account_);

  if (flow.brownout()) {
    // The radio browned out mid-attempt: the energy is gone and the packet
    // is lost. Algorithm 1 makes this rare; LoRaWAN hits it at night.
    ++metrics_->brownouts;
    abort_packet(/*record_history=*/false);
    return;
  }

  ++pending_.transmissions;
  ++metrics_->tx_attempts;
  if (pending_.transmissions > 1) ++metrics_->retx;
  TxTimingCache& timing = shared_->scratch.timing;
  const Time toa = timing.time_on_air(params);
  const Energy radiated = timing.tx_energy(params);
  metrics_->tx_energy += radiated;
  pending_.spent += radiated;

  // Every gateway hears the transmission at its own receive power. The ones
  // this node cannot reach even at its maximum power would drop the copy at
  // their audibility floor, so they only count it.
  const int channel = shared_->plan->random_uplink_channel(rng_);
  const std::vector<std::unique_ptr<Gateway>>& gateways = *shared_->gateways;
  for (const Link& link : links_) {
    gateways[static_cast<std::size_t>(link.gateway)]->on_uplink(
        *this, frame, params, channel, tx_params_.tx_power_dbm - link.loss_db);
  }
  GatewayMetrics& gm = *shared_->gateway_metrics;
  gm.arrivals += inaudible_gateways_;
  gm.lost_under_sensitivity += inaudible_gateways_;

  // Wait out the ACK deadline.
  const Time timeout_at = now + toa + gateways[0]->max_ack_end_delay() + Time::from_ms(50);
  pending_.timeout = sim().schedule_at(timeout_at, [this] { on_ack_timeout(); });
}

void Node::on_ack_timeout() {
  assert(pending_.active);
  pending_.timeout = EventHandle{};
  // Bounded exponential backoff: after n consecutive ACK-less packets the
  // transmission budget halves per failure (floor 1), so a dead gateway
  // gets one probe per period instead of the full ladder.
  int budget = kMaxTransmissions;
  if (config().ack_failure_backoff && consecutive_ackless_ > 0) {
    budget = std::max(1, budget >> std::min(consecutive_ackless_, 3));
  }
  if (pending_.transmissions >= budget) {
    ++metrics_->exhausted;
    ++consecutive_ackless_;
    if (faults_ != nullptr && faults_->gateway_out(sim().now())) ++metrics_->lost_in_outage;
    abort_packet(/*record_history=*/true);
    return;
  }
  const Time backoff = Time::from_us(rng_.uniform_int(kRetxBackoffMin.us(), kRetxBackoffMax.us()));
  pending_.retx = sim().schedule_in(backoff, [this] { start_attempt(); });
}

void Node::receive_ack(const AckFrame& ack, Time ack_end) {
  if (!pending_.active || ack.seq != pending_.seq) return;  // stale duplicate
  if (audit_ != nullptr) {
    audit_->on_ack(id_, ack_end, ack.node_id, ack.seq, next_seq_ - 1, ack.has_degradation,
                   ack.normalized_degradation);
  }
  sim().cancel(pending_.timeout);
  sim().cancel(pending_.retx);  // an ACK can arrive after a timeout already armed a retry

  consecutive_ackless_ = 0;
  if (faults_ != nullptr) {
    // Recovery observability: the first delivery after an outage window
    // closed measures how long this node took to get a packet through.
    const Time outage_end = faults_->last_outage_end_before(ack_end);
    if (outage_end > Time::zero() && outage_end > last_delivery_at_) {
      metrics_->recovery_s.add((ack_end - outage_end).seconds());
    }
  }
  last_delivery_at_ = ack_end;

  ++metrics_->delivered;
  const double latency = (ack_end - pending_.generated_at).seconds();
  metrics_->latency_s.add(latency);
  metrics_->delivered_latency_s.add(latency);
  metrics_->utility_sum += shared_->utility->value(pending_.window, n_windows_);
  retx_estimator_.record(static_cast<std::size_t>(pending_.window), pending_.transmissions - 1);
  // EWMA tracks PER-TRANSMISSION energy; the per-window cost estimate then
  // scales it by the expected transmission count (Eq. 14), so tracking the
  // whole packet's energy here would double-count retransmissions.
  etx_ewma_.observe(pending_.spent.joules() / pending_.transmissions);
  if (ack.has_degradation) {
    w_u_ = ack.normalized_degradation;
    last_w_update_ = ack_end;
  }
  if (ack.adr.has_value()) apply_adr(*ack.adr);
  if (ack.theta.has_value()) {
    switch_.set_soc_cap(policy().adopt_soc_cap(switch_.soc_cap(), *ack.theta));
  }
  pending_.active = false;
}

void Node::abort_packet(bool record_history) {
  sim().cancel(pending_.timeout);
  sim().cancel(pending_.retx);
  metrics_->latency_s.add(period_.seconds());
  if (record_history && pending_.transmissions > 0) {
    retx_estimator_.record(static_cast<std::size_t>(pending_.window),
                           pending_.transmissions - 1);
    etx_ewma_.observe(pending_.spent.joules() / pending_.transmissions);
  }
  pending_.active = false;
}

void Node::apply_adr(const AdrCommand& command) {
  tx_params_.sf = command.sf;
  tx_params_.tx_power_dbm = command.tx_power_dbm;
  tx_params_ = tx_params_.with_auto_ldro();
  single_attempt_energy_ = attempt_demand(tx_params_);
  max_packet_energy_ = single_attempt_energy_ * kMaxTransmissions;
}

namespace {

void write_sample(StateWriter& w, const SocSample& s) {
  write_time(w, s.t);
  w.put_double(s.soc);
}

SocSample read_sample(StateReader& r) {
  SocSample s;
  s.t = read_time(r);
  s.soc = r.get_double();
  return s;
}

}  // namespace

void Node::checkpoint_state(StateWriter& w) const {
  w.begin_section("node");
  w.put_u64(id_);
  write_sf(w, tx_params_.sf);
  w.put_double(tx_params_.tx_power_dbm);

  write_rng(w, rng_.state());
  w.put_u64(crash_rng_.has_value() ? 1 : 0);
  if (crash_rng_.has_value()) write_rng(w, crash_rng_->state());

  write_energy(w, battery_.stored());
  w.put_double(battery_.degradation());
  w.put_u64(supercap_.has_value() ? 1 : 0);
  if (supercap_.has_value()) write_energy(w, supercap_->stored());
  w.put_double(switch_.soc_cap());
  w.put_double(harvester_.jitter());
  write_tracker(w, tracker_.snapshot());

  w.put_double(etx_ewma_.raw_value());
  w.put_u64(etx_ewma_.initialized() ? 1 : 0);
  // Histogram rows only: restore re-derives S_t and the retx sum from them.
  w.put_u64(retx_estimator_.max_windows());
  for (std::size_t t = 0; t < retx_estimator_.max_windows(); ++t) {
    write_sparse_row(w, retx_estimator_.retx_counts(t));
  }

  write_time(w, last_account_);
  write_time(w, last_fade_update_);
  w.put_double(w_u_);
  write_time(w, last_w_update_);
  write_time(w, last_delivery_at_);
  w.put_i64(consecutive_ackless_);
  write_time(w, rebooting_until_);
  w.put_u64(next_seq_);
  w.put_u64(report_seq_);
  w.put_u64(last_report_packet_);

  w.put_u64(pending_.active ? 1 : 0);
  w.put_u64(pending_.seq);
  write_time(w, pending_.generated_at);
  w.put_i64(pending_.window);
  w.put_i64(pending_.transmissions);
  write_energy(w, pending_.spent);

  w.put_u64(has_samples_ ? 1 : 0);
  write_sample(w, period_start_sample_);
  write_sample(w, latest_sample_);

  write_node_metrics(w, *metrics_);

  write_event(w, sim(), period_event_);
  write_event(w, sim(), crash_event_);
  write_event(w, sim(), window_tx_);
  write_event(w, sim(), pending_.timeout);
  write_event(w, sim(), pending_.retx);
  w.end_section();
}

void Node::restore_state(StateReader& r) {
  r.begin_section("node");
  if (r.get_u64() != id_) {
    throw std::runtime_error{"Node::restore_state: checkpoint is for a different node"};
  }
  AdrCommand radio;
  radio.sf = read_sf(r);
  radio.tx_power_dbm = r.get_double();
  // The audible-gateway list was built for kDeviceTxPowerDbm, ADR's ceiling;
  // a louder node would reach gateways that list leaves out.
  if (!(radio.tx_power_dbm <= kDeviceTxPowerDbm)) {
    throw std::runtime_error{"Node::restore_state: TX power above the 14 dBm device maximum"};
  }
  apply_adr(radio);  // re-derives LDRO + energy constants like a live command

  rng_.restore(read_rng(r));
  const bool has_crash_rng = r.get_u64() != 0;
  if (has_crash_rng != crash_rng_.has_value()) {
    throw std::runtime_error{"Node::restore_state: crash-fault stream mismatch"};
  }
  if (has_crash_rng) crash_rng_->restore(read_rng(r));

  const Energy stored = read_energy(r);
  const double degradation = r.get_double();
  battery_.restore_raw(stored, degradation);
  const bool has_supercap = r.get_u64() != 0;
  if (has_supercap != supercap_.has_value()) {
    throw std::runtime_error{"Node::restore_state: supercap presence mismatch"};
  }
  if (has_supercap) supercap_->restore_stored(read_energy(r));
  try {
    // The policy and the switch validate the cap; a bad one is stream damage.
    switch_.set_soc_cap(policy().adopt_soc_cap(switch_.soc_cap(), r.get_double()));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error{std::string{"Node::restore_state: "} + e.what()};
  }
  harvester_.restore_jitter(r.get_double());
  tracker_.restore(read_tracker(r));

  const double ewma_value = r.get_double();
  etx_ewma_.restore(ewma_value, r.get_u64() != 0);
  if (r.get_u64() != retx_estimator_.max_windows()) {
    throw std::runtime_error{"Node::restore_state: retx window count mismatch"};
  }
  retx_estimator_.reset();
  const auto width = static_cast<std::size_t>(retx_estimator_.max_retx()) + 1;
  for (std::size_t t = 0; t < retx_estimator_.max_windows(); ++t) {
    read_sparse_row(r, width, "Node::restore_state: retx histogram",
                    [&](std::size_t retx, std::uint64_t count) {
                      if (!retx_estimator_.restore_count(t, retx, count)) {
                        throw std::runtime_error{
                            "Node::restore_state: retx window totals overflow"};
                      }
                    });
  }

  last_account_ = read_time(r);
  last_fade_update_ = read_time(r);
  w_u_ = r.get_double();
  last_w_update_ = read_time(r);
  last_delivery_at_ = read_time(r);
  consecutive_ackless_ = static_cast<int>(r.get_i64());
  rebooting_until_ = read_time(r);
  next_seq_ = static_cast<std::uint32_t>(r.get_u64());
  report_seq_ = static_cast<std::uint16_t>(r.get_u64());
  last_report_packet_ = static_cast<std::uint32_t>(r.get_u64());

  pending_ = Pending{};
  pending_.active = r.get_u64() != 0;
  pending_.seq = static_cast<std::uint32_t>(r.get_u64());
  pending_.generated_at = read_time(r);
  pending_.window = static_cast<int>(r.get_i64());
  pending_.transmissions = static_cast<int>(r.get_i64());
  pending_.spent = read_energy(r);

  has_samples_ = r.get_u64() != 0;
  period_start_sample_ = read_sample(r);
  latest_sample_ = read_sample(r);

  read_node_metrics(r, *metrics_);

  period_event_ = EventHandle{};
  crash_event_ = EventHandle{};
  window_tx_ = EventHandle{};
  if (const auto e = read_event(r)) {
    period_event_ = sim().schedule_at_seq(e->time, e->seq, [this] { on_period_start(); });
  }
  if (const auto e = read_event(r)) {
    crash_event_ = sim().schedule_at_seq(e->time, e->seq, [this] { on_crash(); });
  }
  if (const auto e = read_event(r)) {
    window_tx_ = sim().schedule_at_seq(e->time, e->seq, [this] { start_attempt(); });
  }
  if (const auto e = read_event(r)) {
    pending_.timeout = sim().schedule_at_seq(e->time, e->seq, [this] { on_ack_timeout(); });
  }
  if (const auto e = read_event(r)) {
    pending_.retx = sim().schedule_at_seq(e->time, e->seq, [this] { start_attempt(); });
  }
  r.end_section();
}

void Node::finalize_metrics(Time now) {
  metrics_->degradation = tracker_.degradation(now);
  metrics_->cycle_linear = tracker_.cycle_linear();
  metrics_->calendar_linear = tracker_.calendar_linear(now);
  metrics_->mean_soc = tracker_.mean_soc();
  metrics_->final_soc = battery_.soc();
}

}  // namespace blam
