// Streaming statistics used by the metrics layer and the benchmark tables.
//
// Thread safety: none of these accumulators synchronize — each sweep cell
// owns its own Metrics (and therefore its own stats), which is what keeps
// parallel grids race-free. QuantileSampler in particular sorts lazily under
// const (mutable members), so even read-only sharing across workers is a
// data race; aggregate per cell and merge() on the joining thread instead.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace blam {

/// Numerically-stable running mean / variance / extrema (Welford).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return n_ > 0 ? mean_ * static_cast<double>(n_) : 0.0; }

  /// Raw accumulator words, for engine checkpoints; restore_raw() is
  /// bit-exact (the infinities of an empty accumulator round-trip through
  /// the codec's hex bit patterns).
  struct Raw {
    std::size_t n{0};
    double mean{0.0};
    double m2{0.0};
    double min{0.0};
    double max{0.0};
  };

  [[nodiscard]] Raw raw() const { return Raw{n_, mean_, m2_, min_, max_}; }

  void restore_raw(const Raw& raw) {
    n_ = raw.n;
    mean_ = raw.mean;
    m2_ = raw.m2;
    min_ = raw.min;
    max_ = raw.max;
  }

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
};

/// Buffered sampler with exact quantiles; suitable for per-node aggregates
/// (hundreds to a few million samples).
class QuantileSampler {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  void merge(const QuantileSampler& other);
  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  /// q in [0, 1]; linear interpolation between order statistics.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double mean() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_{false};
};

/// Five-number summary used when printing box-plot style figure rows.
struct BoxSummary {
  double min{0.0};
  double q1{0.0};
  double median{0.0};
  double q3{0.0};
  double max{0.0};
  double mean{0.0};
  /// Count of points outside 1.5 IQR whiskers.
  std::size_t outliers{0};

  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] BoxSummary summarize_box(const std::vector<double>& values);

}  // namespace blam
