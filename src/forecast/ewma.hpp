// Exponentially weighted moving average (paper Eq. 13):
//   e[p] = beta * x[p-1] + (1 - beta) * e[p-1]
// where beta is the importance of the newest observation.
#pragma once

#include <stdexcept>

namespace blam {

/// Beta of the nodes' TX-energy estimate: the newest packet weighs 0.3, the
/// value every committed figure uses.
inline constexpr double kEtxEwmaBeta = 0.3;

class Ewma {
 public:
  /// `beta` in [0, 1]. The first observation initializes the estimate.
  explicit Ewma(double beta) : beta_{beta} {
    if (beta < 0.0 || beta > 1.0) throw std::invalid_argument{"Ewma: beta must be in [0,1]"};
  }

  void observe(double x) {
    if (!initialized_) {
      value_ = x;
      initialized_ = true;
    } else {
      value_ = beta_ * x + (1.0 - beta_) * value_;
    }
  }

  [[nodiscard]] bool initialized() const { return initialized_; }

  /// Current estimate; `fallback` until the first observation.
  [[nodiscard]] double value_or(double fallback) const { return initialized_ ? value_ : fallback; }

  /// Raw estimate word for engine checkpoints (value_or(0.0) conflates "no
  /// observation yet" with a genuine 0 estimate; this does not).
  [[nodiscard]] double raw_value() const { return value_; }

  void restore(double value, bool initialized) {
    value_ = value;
    initialized_ = initialized;
  }

 private:
  // blam-ckpt: skip -- construction input (scenario ewma_beta); value and initialized are serialized
  double beta_;
  double value_{0.0};
  bool initialized_{false};
};

}  // namespace blam
