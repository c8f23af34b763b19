#include "fault/fault_plan.hpp"

#include <algorithm>
#include <stdexcept>

namespace blam {

namespace {

// A random outage lasts Uniform[kOutageRandomMin, kOutageRandomMax].
constexpr Time kOutageRandomMin = Time::from_minutes(15.0);
constexpr Time kOutageRandomMax = Time::from_hours(2.0);
// Mean sojourns of the downlink ACK chain in its good and bad states.
constexpr Time kAckGoodMean = Time::from_hours(4.0);
constexpr Time kAckBadMean = Time::from_minutes(10.0);

GilbertElliott::Params ack_channel_params(const FaultPlanConfig& config) {
  GilbertElliott::Params params;
  params.loss_good = config.ack_loss_good;
  params.loss_bad = config.ack_loss_bad;
  params.good_mean = kAckGoodMean;
  params.bad_mean = kAckBadMean;
  return params;
}

}  // namespace

bool FaultPlanConfig::outages_enabled() const {
  return outage_daily_duration > Time::zero() || outage_random_per_day > 0.0;
}

bool FaultPlanConfig::ack_loss_enabled() const {
  return ack_loss_good > 0.0 || ack_loss_bad > 0.0;
}

bool FaultPlanConfig::crashes_enabled() const { return crash_per_year > 0.0; }

bool FaultPlanConfig::drought_enabled() const {
  return drought_duration > Time::zero() && drought_scale != 1.0;
}

bool FaultPlanConfig::reports_enabled() const {
  return report_loss > 0.0 || report_dup > 0.0 || report_reorder > 0.0 || report_corrupt > 0.0 ||
         report_truncate > 0.0;
}

bool FaultPlanConfig::any() const {
  return outages_enabled() || ack_loss_enabled() || crashes_enabled() || drought_enabled() ||
         reports_enabled();
}

void FaultPlanConfig::validate() const {
  if (outage_daily_start < Time::zero() || outage_daily_start >= Time::from_days(1.0)) {
    throw std::invalid_argument{"FaultPlanConfig: outage_daily_start in [0, 1 day)"};
  }
  if (outage_daily_duration < Time::zero() || outage_daily_duration > Time::from_days(1.0)) {
    throw std::invalid_argument{"FaultPlanConfig: outage_daily_duration in [0, 1 day]"};
  }
  if (outage_random_per_day < 0.0) {
    throw std::invalid_argument{"FaultPlanConfig: outage_random_per_day must be >= 0"};
  }
  if (ack_loss_good < 0.0 || ack_loss_good > 1.0 || ack_loss_bad < 0.0 || ack_loss_bad > 1.0) {
    throw std::invalid_argument{"FaultPlanConfig: ack loss probabilities in [0,1]"};
  }
  if (crash_per_year < 0.0) {
    throw std::invalid_argument{"FaultPlanConfig: crash_per_year must be >= 0"};
  }
  if (drought_start < Time::zero() || drought_duration < Time::zero()) {
    throw std::invalid_argument{"FaultPlanConfig: drought interval must be non-negative"};
  }
  if (drought_scale < 0.0 || drought_scale > 1.0) {
    throw std::invalid_argument{"FaultPlanConfig: drought_scale in [0,1]"};
  }
  const double report_probs[] = {report_loss, report_dup, report_reorder, report_corrupt,
                                 report_truncate};
  double report_sum = 0.0;
  for (const double p : report_probs) {
    if (p < 0.0 || p > 1.0) {
      throw std::invalid_argument{"FaultPlanConfig: report fault probabilities in [0,1]"};
    }
    report_sum += p;
  }
  if (report_sum > 1.0) {
    throw std::invalid_argument{
        "FaultPlanConfig: report fault probabilities must sum to at most 1"};
  }
}

FaultPlan::FaultPlan(const FaultPlanConfig& config, Rng base)
    : config_{config}, base_{base}, outage_rng_{base.fork(salt::kOutage)} {
  config_.validate();
}

void FaultPlan::rebuild_prefix() const {
  outage_prefix_s_.resize(outages_.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < outages_.size(); ++i) {
    sum += (outages_[i].end - outages_[i].start).seconds();
    outage_prefix_s_[i] = sum;
  }
}

void FaultPlan::ensure_outages(Time t) const {
  if (!config_.outages_enabled()) return;
  if (t < outage_horizon_) return;
  // Extend generously so extensions stay rare; random outages that start
  // before the horizon may end past it, so keep a day of slack beyond the
  // longest possible outage.
  const Time target = t + Time::from_days(30.0);

  std::vector<Interval> fresh;
  if (config_.outage_daily_duration > Time::zero()) {
    const Time day = Time::from_days(1.0);
    while (day * next_daily_day_ + config_.outage_daily_start < target) {
      const Time start = day * next_daily_day_ + config_.outage_daily_start;
      fresh.push_back({start, start + config_.outage_daily_duration});
      ++next_daily_day_;
    }
  }
  if (config_.outage_random_per_day > 0.0) {
    const double mean_gap_s = 86400.0 / config_.outage_random_per_day;
    if (!random_seeded_) {
      next_random_start_ = Time::from_seconds(outage_rng_.exponential(mean_gap_s));
      random_seeded_ = true;
    }
    while (next_random_start_ < target) {
      const Time duration =
          Time::from_us(outage_rng_.uniform_int(kOutageRandomMin.us(), kOutageRandomMax.us()));
      fresh.push_back({next_random_start_, next_random_start_ + duration});
      next_random_start_ += Time::from_seconds(outage_rng_.exponential(mean_gap_s));
    }
  }
  outage_horizon_ = target;
  if (fresh.empty()) return;

  outages_.insert(outages_.end(), fresh.begin(), fresh.end());
  std::sort(outages_.begin(), outages_.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::vector<Interval> merged;
  merged.reserve(outages_.size());
  for (const Interval& iv : outages_) {
    if (!merged.empty() && iv.start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, iv.end);
    } else {
      merged.push_back(iv);
    }
  }
  outages_ = std::move(merged);
  rebuild_prefix();
}

bool FaultPlan::gateway_out(Time t) const {
  if (!config_.outages_enabled()) return false;
  ensure_outages(t);
  // First interval with start > t; the candidate is the one before it.
  const auto it = std::upper_bound(
      outages_.begin(), outages_.end(), t,
      [](Time value, const Interval& iv) { return value < iv.start; });
  if (it == outages_.begin()) return false;
  return t < std::prev(it)->end;
}

Time FaultPlan::outage_seconds_until(Time t) const {
  if (!config_.outages_enabled()) return Time::zero();
  ensure_outages(t);
  const auto it = std::upper_bound(
      outages_.begin(), outages_.end(), t,
      [](Time value, const Interval& iv) { return value < iv.start; });
  if (it == outages_.begin()) return Time::zero();
  const std::size_t idx = static_cast<std::size_t>(it - outages_.begin()) - 1;
  double seconds = outage_prefix_s_[idx];
  if (t < outages_[idx].end) seconds -= (outages_[idx].end - t).seconds();
  return Time::from_seconds(seconds);
}

Time FaultPlan::last_outage_end_before(Time t) const {
  if (!config_.outages_enabled()) return Time::zero();
  ensure_outages(t);
  Time best = Time::zero();
  for (auto it = outages_.rbegin(); it != outages_.rend(); ++it) {
    if (it->end <= t) {
      best = it->end;
      break;
    }
  }
  return best;
}

bool FaultPlan::downlink_lost(int gateway_id, Time t) {
  if (!config_.ack_loss_enabled()) return false;
  auto it = ack_channels_.find(gateway_id);
  if (it == ack_channels_.end()) {
    // The chain's stream depends only on the gateway id, so creation order
    // (and therefore traffic order) cannot change its realization.
    it = ack_channels_
             .emplace(gateway_id,
                      GilbertElliott{ack_channel_params(config_),
                                     base_.fork(salt::kAckChannel +
                                                static_cast<std::uint64_t>(gateway_id))})
             .first;
  }
  return it->second.lost(t);
}

std::vector<std::pair<int, GilbertElliott::State>> FaultPlan::channel_states() const {
  std::vector<std::pair<int, GilbertElliott::State>> out;
  out.reserve(ack_channels_.size());
  for (const auto& [gateway_id, chain] : ack_channels_) {
    out.emplace_back(gateway_id, chain.state());
  }
  return out;
}

void FaultPlan::restore_channel_states(
    const std::vector<std::pair<int, GilbertElliott::State>>& states) {
  ack_channels_.clear();
  const GilbertElliott::Params params = ack_channel_params(config_);
  for (const auto& [gateway_id, state] : states) {
    auto it = ack_channels_
                  .emplace(gateway_id,
                           GilbertElliott{params, base_.fork(salt::kAckChannel +
                                                             static_cast<std::uint64_t>(
                                                                 gateway_id))})
                  .first;
    it->second.restore(state);
  }
}

Rng FaultPlan::crash_stream(std::uint32_t node_id) const {
  return base_.fork(salt::kCrash + (static_cast<std::uint64_t>(node_id) << 16));
}

Rng FaultPlan::report_stream(std::uint32_t node_id) const {
  return base_.fork(salt::kReportPipe + (static_cast<std::uint64_t>(node_id) << 16));
}

double FaultPlan::drought_scale_at(Time t) const {
  if (!config_.drought_enabled()) return 1.0;
  const Time end = config_.drought_start + config_.drought_duration;
  return (t >= config_.drought_start && t < end) ? config_.drought_scale : 1.0;
}

double FaultPlan::drought_factor(Time t0, Time t1) const {
  if (!config_.drought_enabled() || t1 <= t0) return drought_scale_at(t0);
  const Time start = std::max(t0, config_.drought_start);
  const Time end = std::min(t1, config_.drought_start + config_.drought_duration);
  if (end <= start) return 1.0;
  const double in_drought = (end - start).seconds();
  const double total = (t1 - t0).seconds();
  const double fraction = in_drought / total;
  return 1.0 - fraction * (1.0 - config_.drought_scale);
}

Energy FaultPlan::scaled_harvest(const Harvester& harvester, Time t0, Time t1) const {
  if (!config_.drought_enabled() || t1 <= t0) return harvester.energy_between(t0, t1);
  const Time ds = config_.drought_start;
  const Time de = config_.drought_start + config_.drought_duration;
  Energy total = Energy::zero();
  const Time a = std::min(std::max(ds, t0), t1);  // drought entry clamped to [t0,t1]
  const Time b = std::min(std::max(de, t0), t1);  // drought exit clamped to [t0,t1]
  if (a > t0) total += harvester.energy_between(t0, a);
  if (b > a) total += harvester.energy_between(a, b) * config_.drought_scale;
  if (t1 > b) total += harvester.energy_between(b, t1);
  return total;
}

}  // namespace blam
