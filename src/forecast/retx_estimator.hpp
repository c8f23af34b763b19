// Per-forecast-window retransmission estimation (paper Eq. 14).
//
// The node counts, for each forecast-window index t, how often it selected
// that window (S_t) and how many retransmissions each selection cost
// (I_{r,t}). P(r|t) is the empirical CDF of retransmission counts; the MAC
// uses the expected number of *transmissions* (1 + E[retx | t]) to scale its
// per-window energy estimate, steering nodes away from crowded windows.
//
// Every node keeps one, so the layout is flat: the per-window totals are two
// contiguous arrays and the histograms one window-major array of
// (max_retx + 1) counts per window — three allocations per estimator,
// whatever the window count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace blam {

class RetxEstimator {
 public:
  /// `max_windows`: largest forecast-window index + 1 this node can use.
  /// `max_retx`: cap on counted retransmissions (LoRaWAN allows 7 after the
  /// first transmission; observations above the cap are clamped into it).
  explicit RetxEstimator(std::size_t max_windows, int max_retx = 7);

  /// Records that a packet sent in window `t` needed `retx` retransmissions.
  void record(std::size_t t, int retx);

  /// Empirical P(retransmissions <= r | window t), Eq. 14. Returns 1.0 for
  /// a window never selected (optimistic prior: assume no retransmissions).
  [[nodiscard]] double probability_at_most(int r, std::size_t t) const;

  /// Expected number of transmissions (first + retransmissions) in window
  /// `t`; 1.0 for windows with no history. Inline: a node's cost estimate
  /// calls it once per forecast window every period.
  [[nodiscard]] double expected_transmissions(std::size_t t) const {
    check(t);
    if (selections_[t] == 0) return 1.0;
    return 1.0 + static_cast<double>(retx_sum_[t]) / static_cast<double>(selections_[t]);
  }

  /// Number of times window `t` was selected (paper's S_t).
  [[nodiscard]] std::uint64_t selections(std::size_t t) const;

  /// Sum of the recorded (clamped) retransmission counts in window `t`.
  [[nodiscard]] std::uint64_t retx_sum(std::size_t t) const;

  /// Window `t`'s histogram I_{r,t}, r in [0, max_retx].
  [[nodiscard]] std::span<const std::uint64_t> retx_counts(std::size_t t) const;

  [[nodiscard]] std::size_t max_windows() const { return selections_.size(); }
  [[nodiscard]] int max_retx() const { return max_retx_; }

  /// Zeroes every counter in place (crash reboot: the history is volatile
  /// MCU state).
  void reset();

  /// Installs a checkpointed count I_{r,t} into an empty bucket and adds it
  /// to window `t`'s totals (S_t and the retx sum), the way `count` calls
  /// to record() would. Returns false, leaving the estimator untouched, if
  /// `r` > max_retx, the bucket already holds a count, or a total would
  /// overflow.
  [[nodiscard]] bool restore_count(std::size_t t, std::size_t r, std::uint64_t count);

 private:
  [[nodiscard]] std::size_t width() const { return static_cast<std::size_t>(max_retx_) + 1; }
  /// Throws std::out_of_range for t >= max_windows().
  void check(std::size_t t) const {
    if (t >= selections_.size()) throw_window_out_of_range();
  }
  [[noreturn]] static void throw_window_out_of_range();

  /// S_t per window.
  std::vector<std::uint64_t> selections_;
  /// Sum of the recorded (clamped) retransmission counts per window.
  std::vector<std::uint64_t> retx_sum_;
  /// I_{r,t} at t * width() + r.
  std::vector<std::uint64_t> histogram_;
  // blam-ckpt: skip -- construction input (kMaxTransmissions); per-window counters are serialized
  int max_retx_;
};

}  // namespace blam
