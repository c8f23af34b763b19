#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace blam {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void QuantileSampler::merge(const QuantileSampler& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = false;
}

double QuantileSampler::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double QuantileSampler::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

std::string BoxSummary::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g mean=%.4g outliers=%zu", min, q1,
                median, q3, max, mean, outliers);
  return buf;
}

BoxSummary summarize_box(const std::vector<double>& values) {
  BoxSummary box;
  if (values.empty()) return box;
  QuantileSampler sampler;
  for (double v : values) sampler.add(v);
  box.min = sampler.quantile(0.0);
  box.q1 = sampler.quantile(0.25);
  box.median = sampler.quantile(0.5);
  box.q3 = sampler.quantile(0.75);
  box.max = sampler.quantile(1.0);
  box.mean = sampler.mean();
  const double iqr = box.q3 - box.q1;
  const double lo_fence = box.q1 - 1.5 * iqr;
  const double hi_fence = box.q3 + 1.5 * iqr;
  for (double v : values) {
    if (v < lo_fence || v > hi_fence) ++box.outliers;
  }
  return box;
}

}  // namespace blam
