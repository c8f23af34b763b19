#include "audit/audit.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <utility>

#include "common/env_number.hpp"

namespace blam {

const char* audit_invariant_name(AuditInvariant invariant) {
  switch (invariant) {
    case AuditInvariant::kEnergyConservation:
      return "energy-conservation";
    case AuditInvariant::kSocBounds:
      return "soc-bounds";
    case AuditInvariant::kFadeMonotonic:
      return "fade-monotonic";
    case AuditInvariant::kEventMonotonic:
      return "event-monotonic";
    case AuditInvariant::kDutyCycle:
      return "duty-cycle";
    case AuditInvariant::kSequence:
      return "sequence";
    case AuditInvariant::kFeedbackRange:
      return "feedback-range";
    case AuditInvariant::kFeedbackConsistency:
      return "feedback-consistency";
  }
  return "?";
}

std::string AuditViolation::to_string() const {
  std::string s = "[audit] ";
  s += audit_invariant_name(invariant);
  s += ": ";
  if (node >= 0) {
    s += "node " + std::to_string(node) + " ";
  }
  s += "at " + at.to_string() + ": " + detail;
  s += " (observed " + std::to_string(observed) + ", bound " + std::to_string(bound) + ")";
  return s;
}

AuditConfig audit_config_from_env(AuditConfig base) {
  if (const auto level = env_number<std::int64_t>("BLAM_AUDIT", 0, 2)) {
    base.level = static_cast<int>(*level);
  }
  if (const char* env = std::getenv("BLAM_AUDIT_THROW")) {
    if (env[0] == '1' || env[0] == 't' || env[0] == 'T' || env[0] == 'y' || env[0] == 'Y') {
      base.throw_on_violation = true;
    } else if (env[0] == '0' || env[0] == 'f' || env[0] == 'F' || env[0] == 'n' ||
               env[0] == 'N') {
      base.throw_on_violation = false;
    }
  }
  return base;
}

AuditError::AuditError(AuditViolation violation)
    : std::runtime_error{violation.to_string()}, violation_{std::move(violation)} {}

Auditor::Auditor(AuditConfig config) : config_{config} {
  if (config_.level < 1 || config_.level > 2) {
    throw std::invalid_argument{"Auditor: level must be 1 or 2 (0 means build no Auditor)"};
  }
  if (config_.sample_every < 1) {
    throw std::invalid_argument{"Auditor: sample_every must be >= 1"};
  }
}

Auditor::NodeLedger& Auditor::ledger(std::uint32_t node) {
  if (node >= ledgers_.size()) ledgers_.resize(static_cast<std::size_t>(node) + 1);
  return ledgers_[node];
}

bool Auditor::due(std::uint64_t& counter) {
  if (config_.level >= 2) return true;
  return (counter++ % static_cast<std::uint64_t>(config_.sample_every)) == 0;
}

void Auditor::report(AuditInvariant invariant, Time at, std::int64_t node, double observed,
                     double bound, std::string detail) {
  AuditViolation v;
  v.invariant = invariant;
  v.at = at;
  v.node = node;
  v.observed = observed;
  v.bound = bound;
  v.detail = std::move(detail);
  ++violation_count_;
  if (violations_.size() < config_.max_recorded) violations_.push_back(v);
  if (config_.throw_on_violation) throw AuditError{std::move(v)};
}

void Auditor::on_energy_flow(std::uint32_t node, Time at, Energy harvest, Energy demand,
                             const PowerFlow& flow, Energy stored_before, Energy stored_after,
                             double min_store_efficiency) {
  NodeLedger& led = ledger(node);
  // The totals always accumulate; only the arithmetic checks are sampled, or
  // the network-wide ledger would have holes at level 1.
  total_harvested_j_ += harvest.joules();
  total_consumed_j_ += (demand - flow.deficit).joules();
  total_wasted_j_ += flow.wasted.joules();

  if (due(flow_counter_)) {
    ++checks_run_;
    const double scale = std::max({std::abs(harvest.joules()), std::abs(demand.joules()),
                                   std::abs(stored_before.joules()),
                                   std::abs(stored_after.joules())});
    const double tol = config_.abs_tolerance_j + config_.rel_tolerance * scale;

    const double negatives =
        std::min({flow.from_green.joules(), flow.from_battery.joules(), flow.charged.joules(),
                  flow.wasted.joules(), flow.deficit.joules()});
    if (negatives < -tol) {
      report(AuditInvariant::kEnergyConservation, at, node, negatives, 0.0,
             "negative flow component");
    }

    const double demand_split =
        flow.from_green.joules() + flow.from_battery.joules() + flow.deficit.joules();
    if (std::abs(demand_split - demand.joules()) > tol) {
      report(AuditInvariant::kEnergyConservation, at, node, demand_split, demand.joules(),
             "demand != from_green + from_battery + deficit");
    }

    const double harvest_split =
        flow.from_green.joules() + flow.charged.joules() + flow.wasted.joules();
    if (std::abs(harvest_split - harvest.joules()) > tol) {
      report(AuditInvariant::kEnergyConservation, at, node, harvest_split, harvest.joules(),
             "harvest != from_green + charged + wasted");
    }

    // Storage delta: the stores gained `charged` (minus a conversion loss no
    // worse than the least efficient path) and supplied `from_battery`.
    const double delta = stored_after.joules() - stored_before.joules();
    const double conversion_loss = flow.charged.joules() - flow.from_battery.joules() - delta;
    const double max_loss = flow.charged.joules() * (1.0 - min_store_efficiency);
    if (conversion_loss < -tol || conversion_loss > max_loss + tol) {
      report(AuditInvariant::kEnergyConservation, at, node, conversion_loss, max_loss,
             "storage delta outside [charged*eff - drawn, charged - drawn]");
    }

    // Continuity: stored energy only changes through flows and reported
    // external losses; anything else is energy appearing from nowhere.
    if (led.seen_flow) {
      const double expected_before = led.last_stored_j - led.pending_loss_j;
      const double ctol = config_.abs_tolerance_j +
                          config_.rel_tolerance *
                              std::max(std::abs(expected_before), std::abs(stored_before.joules()));
      if (std::abs(stored_before.joules() - expected_before) > ctol) {
        report(AuditInvariant::kEnergyConservation, at, node, stored_before.joules(),
               expected_before, "stored energy changed between accounting intervals");
      }
    }
  }

  led.seen_flow = true;
  led.last_stored_j = stored_after.joules();
  led.pending_loss_j = 0.0;
}

void Auditor::on_storage_loss(std::uint32_t node, Time at, Energy amount) {
  NodeLedger& led = ledger(node);
  led.pending_loss_j += amount.joules();
  if (amount.joules() < -config_.abs_tolerance_j) {
    ++checks_run_;
    report(AuditInvariant::kEnergyConservation, at, node, amount.joules(), 0.0,
           "negative external storage loss");
  }
}

void Auditor::on_soc(std::uint32_t node, Time at, double soc, double cap) {
  NodeLedger& led = ledger(node);
  const bool check = due(soc_counter_);
  if (check) {
    ++checks_run_;
    const double tol = config_.soc_tolerance;
    if (soc < -tol || soc > 1.0 + tol) {
      report(AuditInvariant::kSocBounds, at, node, soc, soc < 0.0 ? 0.0 : 1.0,
             "SoC outside [0, 1]");
    } else if (soc > cap + tol && led.seen_soc && soc > led.last_soc + tol) {
      // Above the cap AND rising: charge() ignored theta. (Merely sitting
      // above a cap that adaptive theta lowered is legal while draining.)
      report(AuditInvariant::kSocBounds, at, node, soc, cap, "SoC charged above the theta cap");
    }
  }
  led.last_soc = soc;
  led.seen_soc = true;
}

void Auditor::on_degradation(std::uint32_t node, Time at, double degradation) {
  NodeLedger& led = ledger(node);
  ++checks_run_;
  const double tol = config_.soc_tolerance;
  if (degradation < -tol || degradation > 1.0 + tol) {
    report(AuditInvariant::kFadeMonotonic, at, node, degradation,
           degradation < 0.0 ? 0.0 : 1.0, "degradation outside [0, 1]");
  }
  if (degradation + tol < led.last_degradation) {
    report(AuditInvariant::kFadeMonotonic, at, node, degradation, led.last_degradation,
           "capacity fade decreased");
  }
  led.last_degradation = std::max(led.last_degradation, degradation);
}

void Auditor::on_event_pop(Time now, Time event_time) {
  if (!due(event_counter_)) return;
  ++checks_run_;
  if (event_time < now) {
    report(AuditInvariant::kEventMonotonic, now, -1, event_time.seconds(), now.seconds(),
           "event queue popped a timestamp behind the clock");
  }
}

void Auditor::on_transmission(std::uint32_t node, Time start, Time airtime, double max_duty) {
  NodeLedger& led = ledger(node);
  ++checks_run_;
  if (airtime < Time::zero()) {
    report(AuditInvariant::kDutyCycle, start, node, airtime.seconds(), 0.0, "negative airtime");
    return;
  }
  if (max_duty < 1.0) {
    if (start < led.duty_next_allowed) {
      report(AuditInvariant::kDutyCycle, start, node, start.seconds(),
             led.duty_next_allowed.seconds(), "transmission inside the regulatory T_off window");
    }
    // Same arithmetic as DutyCycleLimiter::record, tracked independently.
    const Time off = airtime * (1.0 / max_duty - 1.0);
    const Time candidate = start + airtime + off;
    if (candidate > led.duty_next_allowed) led.duty_next_allowed = candidate;
  }
}

void Auditor::on_ack(std::uint32_t node, Time at, std::uint32_t ack_node, std::uint32_t ack_seq,
                     std::uint32_t highest_seq, bool has_w, double w) {
  ++checks_run_;
  if (ack_node != node) {
    report(AuditInvariant::kSequence, at, node, static_cast<double>(ack_node),
           static_cast<double>(node), "ACK addressed to a different node was accepted");
  }
  if (ack_seq > highest_seq) {
    report(AuditInvariant::kSequence, at, node, static_cast<double>(ack_seq),
           static_cast<double>(highest_seq), "ACK confirms a sequence the node never sent");
  }
  if (has_w) {
    const double tol = config_.soc_tolerance;
    if (w < -tol || w > 1.0 + tol) {
      report(AuditInvariant::kFeedbackRange, at, node, w, w < 0.0 ? 0.0 : 1.0,
             "disseminated w_u outside [0, 1]");
    }
  }
}

void Auditor::on_uplink_seq(std::uint32_t node, Time at, std::int64_t seq,
                            std::int64_t prev_seen) {
  ++checks_run_;
  if (seq <= prev_seen) {
    report(AuditInvariant::kSequence, at, node, static_cast<double>(seq),
           static_cast<double>(prev_seen),
           "server accepted a non-increasing uplink sequence number");
  }
}

void Auditor::on_feedback_ledger(std::uint32_t node, Time at, double gateway_estimate,
                                 double node_truth) {
  ++checks_run_;
  const double bound =
      node_truth * (1.0 + config_.feedback_rel_tolerance) + config_.feedback_abs_tolerance;
  if (gateway_estimate > bound) {
    report(AuditInvariant::kFeedbackConsistency, at, node, gateway_estimate, bound,
           "gateway ledger degradation exceeds the node's own tracker");
  }
}

std::string Auditor::summary() const {
  return "audit level " + std::to_string(config_.level) + ": " + std::to_string(checks_run_) +
         " checks, " + std::to_string(violation_count_) + " violation(s)";
}

}  // namespace blam
