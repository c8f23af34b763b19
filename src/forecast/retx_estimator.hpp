// Per-forecast-window retransmission estimation (paper Eq. 14).
//
// The node counts, for each forecast-window index t, how many of its
// selections of that window cost r retransmissions (I_{r,t}); S_t is the
// row's sum. P(r|t) is the empirical CDF of retransmission counts; the MAC
// uses the expected number of *transmissions* (1 + E[retx | t]) to scale its
// per-window energy estimate, steering nodes away from crowded windows.
//
// Every node keeps one, so the layout is flat: one window-major array of
// (max_retx + 1) u32 counts per window, and one per-window row of expected
// transmissions that record(), reset() and restore_count() keep current —
// two allocations per estimator, whatever the window count. The cost fill
// reads the row every period; the counts change only on those cold paths.
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
  /// Throws std::overflow_error, leaving the estimator untouched, if the
  /// bucket already holds 2^32 - 1.
  void record(std::size_t t, int retx);

  /// Expected number of transmissions (first + retransmissions) in window
  /// `t`, 1 + Σ r·I_{r,t} / S_t; 1.0 for windows with no history. Inline: a
  /// node's cost estimate calls it once per forecast window every period.
  [[nodiscard]] double expected_transmissions(std::size_t t) const {
    check(t);
    return expected_[t];
  }

  /// Window `t`'s histogram I_{r,t}, r in [0, max_retx].
  [[nodiscard]] std::span<const std::uint32_t> retx_counts(std::size_t t) const;

  [[nodiscard]] std::size_t max_windows() const { return expected_.size(); }
  [[nodiscard]] int max_retx() const { return max_retx_; }

  /// Zeroes every counter in place (crash reboot: the history is volatile
  /// MCU state).
  void reset();

  /// Installs a checkpointed count I_{r,t} into an empty bucket, the way
  /// `count` calls to record() would. Returns false, leaving the estimator
  /// untouched, if `r` > max_retx, the bucket already holds a count, or
  /// `count` exceeds 2^32 - 1.
  [[nodiscard]] bool restore_count(std::size_t t, std::size_t r, std::uint64_t count);

 private:
  [[nodiscard]] std::size_t width() const { return static_cast<std::size_t>(max_retx_) + 1; }
  /// Throws std::out_of_range for t >= max_windows().
  void check(std::size_t t) const {
    if (t >= expected_.size()) throw_window_out_of_range();
  }
  [[noreturn]] static void throw_window_out_of_range();
  /// Recomputes expected_[t] from window `t`'s histogram row.
  void refresh(std::size_t t);

  /// I_{r,t} at t * width() + r.
  std::vector<std::uint32_t> histogram_;
  // blam-ckpt: skip -- derived from histogram_ by refresh(), rebuilt by restore_count()
  std::vector<double> expected_;
  // blam-ckpt: skip -- construction input (kMaxTransmissions); per-window counters are serialized
  int max_retx_;
};

}  // namespace blam
