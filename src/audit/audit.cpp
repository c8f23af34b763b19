#include "audit/audit.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <utility>

#include "common/env_number.hpp"
#include "common/sorted_ids.hpp"
#include "common/state_codec.hpp"
#include "sim/checkpoint.hpp"

namespace blam {

namespace {

// Energy-ledger tolerance: kAbsToleranceJ + kRelTolerance * max(|terms|)
// joules. The switch's identities are exact up to double rounding, so 1e-9
// relative leaves seven orders of magnitude between rounding noise and a
// real bug, and month-long double accumulation does not false-positive.
constexpr double kRelTolerance = 1e-9;
constexpr double kAbsToleranceJ = 1e-9;
/// Tolerance for dimensionless bounds (SoC, degradation, w_u).
constexpr double kUnitTolerance = 1e-9;
/// Feedback-consistency slack: the ledger may exceed node truth by
/// rel * truth + abs before it counts as fabrication. The gateway's trace
/// is minute-quantized and subsampled, so this is loose by design.
constexpr double kFeedbackRelTolerance = 0.05;
constexpr double kFeedbackAbsTolerance = 1e-6;

}  // namespace

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

AuditConfig audit_config_from_env() {
  AuditConfig config;
  config.enabled = env_number<std::int64_t>("BLAM_AUDIT", 0, 1).value_or(0) == 1;
  if (const char* env = std::getenv("BLAM_AUDIT_THROW")) {
    config.throw_on_violation =
        env[0] == '1' || env[0] == 't' || env[0] == 'T' || env[0] == 'y' || env[0] == 'Y';
  }
  return config;
}

AuditError::AuditError(AuditViolation violation)
    : std::runtime_error{violation.to_string()}, violation_{std::move(violation)} {}

Auditor::Auditor(std::vector<std::uint32_t> node_ids, bool throw_on_violation)
    : node_ids_{std::move(node_ids)},
      throw_on_violation_{throw_on_violation},
      ledgers_(node_ids_.size()) {
  if (std::ranges::adjacent_find(node_ids_, std::greater_equal<>{}) != node_ids_.end()) {
    throw std::invalid_argument{"Auditor: node ids must be ascending and unique"};
  }
}

Auditor::NodeLedger& Auditor::ledger(std::uint32_t node) {
  const auto it = lower_bound_id(node_ids_.begin(), node_ids_.end(), node, std::identity{});
  if (it == node_ids_.end() || *it != node) {
    throw std::out_of_range{"Auditor: node " + std::to_string(node) + " is outside this slice"};
  }
  return ledgers_[static_cast<std::size_t>(it - node_ids_.begin())];
}

void Auditor::report(AuditInvariant invariant, Time at, std::int64_t node, double observed,
                     double bound, std::string detail) {
  AuditViolation v{invariant, at, node, observed, bound, std::move(detail)};
  ++violation_count_;
  if (violations_.size() < kMaxRecorded) violations_.push_back(v);
  if (throw_on_violation_) throw AuditError{std::move(v)};
}

void Auditor::on_energy_flow(std::uint32_t node, Time at, Energy harvest, Energy demand,
                             const PowerFlow& flow, Energy stored_before, Energy stored_after,
                             double min_store_efficiency) {
  NodeLedger& led = ledger(node);
  ++checks_run_;
  const double scale = std::max({std::abs(harvest.joules()), std::abs(demand.joules()),
                                 std::abs(stored_before.joules()),
                                 std::abs(stored_after.joules())});
  const double tol = kAbsToleranceJ + kRelTolerance * scale;

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
    const double before_j = stored_before.joules();
    const double ctol =
        kAbsToleranceJ + kRelTolerance * std::max(std::abs(expected_before), std::abs(before_j));
    if (std::abs(before_j - expected_before) > ctol) {
      report(AuditInvariant::kEnergyConservation, at, node, before_j, expected_before,
             "stored energy changed between accounting intervals");
    }
  }

  led.seen_flow = true;
  led.last_stored_j = stored_after.joules();
  led.pending_loss_j = 0.0;
}

void Auditor::on_storage_loss(std::uint32_t node, Time at, Energy amount) {
  NodeLedger& led = ledger(node);
  led.pending_loss_j += amount.joules();
  if (amount.joules() < -kAbsToleranceJ) {
    ++checks_run_;
    report(AuditInvariant::kEnergyConservation, at, node, amount.joules(), 0.0,
           "negative external storage loss");
  }
}

void Auditor::on_soc(std::uint32_t node, Time at, double soc, double cap) {
  NodeLedger& led = ledger(node);
  ++checks_run_;
  const double tol = kUnitTolerance;
  if (soc < -tol || soc > 1.0 + tol) {
    report(AuditInvariant::kSocBounds, at, node, soc, soc < 0.0 ? 0.0 : 1.0, "SoC outside [0, 1]");
  } else if (soc > cap + tol && led.seen_soc && soc > led.last_soc + tol) {
    // Above the cap AND rising: charge() ignored theta. (Merely sitting
    // above a cap that adaptive theta lowered is legal while draining.)
    report(AuditInvariant::kSocBounds, at, node, soc, cap, "SoC charged above the theta cap");
  }
  led.last_soc = soc;
  led.seen_soc = true;
}

void Auditor::on_degradation(std::uint32_t node, Time at, double degradation) {
  NodeLedger& led = ledger(node);
  ++checks_run_;
  const double tol = kUnitTolerance;
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
  ++checks_run_;
  if (event_time < now) {
    report(AuditInvariant::kEventMonotonic, now, -1, event_time.seconds(), now.seconds(),
           "event queue popped a timestamp behind the clock");
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
  if (has_w && (w < -kUnitTolerance || w > 1.0 + kUnitTolerance)) {
    report(AuditInvariant::kFeedbackRange, at, node, w, w < 0.0 ? 0.0 : 1.0,
           "disseminated w_u outside [0, 1]");
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
  const double bound = node_truth * (1.0 + kFeedbackRelTolerance) + kFeedbackAbsTolerance;
  if (gateway_estimate > bound) {
    report(AuditInvariant::kFeedbackConsistency, at, node, gateway_estimate, bound,
           "gateway ledger degradation exceeds the node's own tracker");
  }
}

void Auditor::checkpoint_state(StateWriter& w) const {
  w.begin_section("audit");
  w.put_u64(checks_run_);
  w.put_u64(violation_count_);
  w.put_u64(ledgers_.size());
  for (const NodeLedger& led : ledgers_) {
    w.put_u64(led.seen_flow ? 1 : 0);
    w.put_double(led.last_stored_j);
    w.put_double(led.pending_loss_j);
    w.put_u64(led.seen_soc ? 1 : 0);
    w.put_double(led.last_soc);
    w.put_double(led.last_degradation);
  }
  w.put_u64(violations_.size());
  for (const AuditViolation& v : violations_) {
    w.put_u64(static_cast<std::uint64_t>(v.invariant));
    write_time(w, v.at);
    w.put_i64(v.node);
    w.put_double(v.observed);
    w.put_double(v.bound);
    w.put_string(v.detail);
  }
  w.end_section();
}

void Auditor::restore_state(StateReader& r) {
  r.begin_section("audit");
  checks_run_ = r.get_u64();
  violation_count_ = r.get_u64();
  if (r.get_u64() != ledgers_.size()) {
    throw std::runtime_error{"audit checkpoint: ledger rows do not match this slice's nodes"};
  }
  for (NodeLedger& led : ledgers_) {
    led.seen_flow = r.get_u64() != 0;
    led.last_stored_j = r.get_double();
    led.pending_loss_j = r.get_double();
    led.seen_soc = r.get_u64() != 0;
    led.last_soc = r.get_double();
    led.last_degradation = r.get_double();
  }
  // A forged count runs into the section trailer, never into the allocator.
  violations_.clear();
  for (std::uint64_t i = 0, n = r.get_u64(); i < n; ++i) {
    if (violations_.size() == kMaxRecorded || violations_.size() == violation_count_) {
      throw std::runtime_error{"audit checkpoint: more violations recorded than counted"};
    }
    AuditViolation& v = violations_.emplace_back();
    const std::uint64_t invariant = r.get_u64();
    if (invariant > static_cast<std::uint64_t>(AuditInvariant::kFeedbackConsistency)) {
      throw std::runtime_error{"audit checkpoint: unknown invariant " + std::to_string(invariant)};
    }
    v.invariant = static_cast<AuditInvariant>(invariant);
    v.at = read_time(r);
    v.node = r.get_i64();
    v.observed = r.get_double();
    v.bound = r.get_double();
    v.detail = r.get_string();
  }
  r.end_section();
}

std::string AuditReport::summary() const {
  return "audit: " + std::to_string(checks_run) + " checks, " + std::to_string(violation_count) +
         " violation(s)";
}

AuditReport merge_audits(std::span<const Auditor* const> audits) {
  AuditReport report;
  for (const Auditor* audit : audits) {
    report.checks_run += audit->checks_run();
    report.violation_count += audit->violation_count();
    report.violations.insert(report.violations.end(), audit->violations().begin(),
                             audit->violations().end());
  }
  // Each slice records its first violations in observation (time) order, so
  // the merged first kMaxRecorded are among them whatever the slice count.
  const auto earlier = [](const AuditViolation& a, const AuditViolation& b) {
    return a.at != b.at ? a.at < b.at : a.node < b.node;
  };
  std::ranges::stable_sort(report.violations, earlier);
  if (report.violations.size() > Auditor::kMaxRecorded) {
    report.violations.resize(Auditor::kMaxRecorded);
  }
  return report;
}

}  // namespace blam
