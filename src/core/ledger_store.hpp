// Columnar (SoA) per-node degradation state for the gateway ledger.
//
// The PR-6 service kept one heap-allocated DegradationTracker per node
// behind a unique_ptr in a hash map — fine for hundreds of nodes, hostile
// to millions: every ingest chased two pointers and every recompute walked
// scattered allocations. LedgerStore flattens the tracker (SoC/stress
// integrals, rainflow turning-point machine, held-report slots) into
// parallel columns indexed by a dense NodeHandle, with the two
// variable-length pieces — rainflow residual stacks and buffered
// out-of-order report samples — in chunked SpanArena storage. An engine
// slice sizes every column once for its node count (reserve), then
// registering each node appends one row without regrowing a column;
// ingesting a report touches only the columns it needs; a full recompute
// streams the columns in index order.
//
// Every arithmetic expression here is copied operand-for-operand from
// DegradationTracker / RainflowCounter so the columnar ledger is
// bit-identical to the per-node trackers it replaces (proved by the
// differential tests in tests/test_ledger_store.cpp and the PR-6 checkpoint
// fixture in tests/test_ledger_checkpoint.cpp). The cycle-linear value is
// additionally cached per node and invalidated on any rainflow mutation,
// so a recompute touches the residual stacks of dirty nodes only — clean
// nodes cost two multiplies and an exp (calendar aging must still advance
// with `now`).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "core/soc_sample.hpp"
#include "core/span_arena.hpp"
#include "degradation/model.hpp"
#include "degradation/tracker.hpp"

namespace blam {

/// Dense row index into the ledger columns (registration order).
using NodeHandle = std::uint32_t;

class LedgerStore {
 public:
  /// `held_slots` is the per-node reassembly-buffer capacity (the service's
  /// kReorderDepth + 1: one slot of headroom so the overflowing insert can
  /// land before the buffer is flushed).
  LedgerStore(const DegradationModel& model, double temperature_c, std::uint32_t held_slots);

  /// Appends one node row (all-zero state); returns its dense handle.
  NodeHandle add_node();

  /// Sizes every column for `rows` rows, so the add_node calls that follow
  /// up to that count append without regrowing a column.
  void reserve(std::size_t rows);

  [[nodiscard]] std::size_t size() const { return has_sample_.size(); }

  /// Drops every row and recycles the arenas (restore() starts from this).
  void reset();

  // --- tracker columns (bit-identical to DegradationTracker) --------------

  /// Appends an SoC sample; `t` must be non-decreasing per node.
  void record(NodeHandle h, Time t, double soc);

  /// Seals the rainflow residual across a node crash/reboot.
  void mark_discontinuity(NodeHandle h);

  [[nodiscard]] bool has_sample(NodeHandle h) const { return has_sample_[h] != 0; }

  /// Linear calendar aging at `now` (tracker's calendar_linear).
  [[nodiscard]] double calendar_linear(NodeHandle h, Time now) const;

  /// Linear cycle aging including the open residual (tracker's
  /// cycle_linear); walks the residual stack.
  [[nodiscard]] double cycle_linear(NodeHandle h) const;

  /// Total non-linear degradation at `now`. Uses the per-node residual
  /// cache: nodes untouched since the last query skip the stack walk.
  [[nodiscard]] double degradation_at(NodeHandle h, Time now);

  /// Rows whose residual cache is valid (clean since last degradation_at).
  [[nodiscard]] std::size_t clean_rows() const;

  // --- held-report slots (bounded out-of-order reassembly) -----------------

  [[nodiscard]] std::uint32_t held_count(NodeHandle h) const { return held_count_[h]; }
  [[nodiscard]] std::uint16_t held_seq(NodeHandle h, std::uint32_t slot) const {
    return held_seq_[slot_index(h, slot)];
  }
  [[nodiscard]] std::span<const SocSample> held_samples(NodeHandle h, std::uint32_t slot) const {
    return sample_arena_.view(held_samples_[slot_index(h, slot)]);
  }
  /// Inserts at `slot`, shifting later slots up. Requires held_count < slots.
  void held_insert(NodeHandle h, std::uint32_t slot, std::uint16_t seq,
                   std::span<const SocSample> samples);
  /// Removes `slot`, shifting later slots down and recycling the samples.
  void held_remove(NodeHandle h, std::uint32_t slot);
  void held_clear(NodeHandle h);

  // --- checkpoint interchange ---------------------------------------------

  /// Row state in DegradationTracker::Snapshot form (same field meanings, so
  /// the PR-6 checkpoint text round-trips bit-exactly through the columns).
  [[nodiscard]] DegradationTracker::Snapshot snapshot(NodeHandle h) const;
  void restore(NodeHandle h, const DegradationTracker::Snapshot& snapshot);

  /// Elements reserved across both arenas (capacity stats for the bench).
  [[nodiscard]] std::size_t arena_pool_elements() const {
    return rainflow_arena_.pool_elements() + sample_arena_.pool_elements();
  }

 private:
  [[nodiscard]] std::size_t slot_index(NodeHandle h, std::uint32_t slot) const {
    return static_cast<std::size_t>(h) * held_slots_ + slot;
  }

  // Rainflow turning-point machine (RainflowCounter, columnar).
  void rainflow_push(NodeHandle h, double soc);
  void rainflow_accept_turning_point(NodeHandle h, double value);
  void rainflow_collapse(NodeHandle h);
  void rainflow_seal_residual(NodeHandle h);

  /// Closed-cycle accumulation: the tracker's on-cycle callback, inlined.
  void add_cycle(NodeHandle h, double weight, double range, double mean) {
    closed_cycle_sum_[h] += weight * range * mean * k6_ * temp_stress_[h];
  }

  /// Enumerates the residual as half cycles without consuming it
  /// (RainflowCounter::for_each_residual, columnar). Visit receives
  /// (range, mean, weight).
  template <typename Visit>
  void for_each_residual(NodeHandle h, Visit&& visit) const {
    const std::span<const double> stack = rainflow_arena_.view(rainflow_stack_[h]);
    const double* prev = nullptr;
    for (const double& point : stack) {
      if (prev != nullptr) {
        visit(std::abs(point - *prev), 0.5 * (point + *prev), 0.5);
      }
      prev = &point;
    }
    if (rf_has_last_[h] != 0 && rf_prev_direction_[h] != 0.0) {
      if (prev != nullptr && *prev != rf_last_[h]) {
        visit(std::abs(rf_last_[h] - *prev), 0.5 * (rf_last_[h] + *prev), 0.5);
      }
    }
  }

  DegradationModel model_;
  double default_temperature_c_;
  // blam-ckpt: skip -- model constant, copied from DegradationParams at construction
  double k6_;
  std::uint32_t held_slots_;

  // Tracker scalars.
  std::vector<double> closed_cycle_sum_;
  std::vector<Time> last_time_;
  std::vector<double> last_soc_;
  std::vector<std::uint8_t> has_sample_;
  std::vector<double> soc_time_integral_;
  std::vector<double> stress_time_integral_;
  std::vector<Time> stress_integrated_to_;
  std::vector<double> temperature_c_;
  std::vector<double> temp_stress_;
  std::vector<std::uint64_t> discontinuities_;

  // Rainflow machine.
  std::vector<std::uint64_t> rf_full_cycles_;
  std::vector<std::uint8_t> rf_has_last_;
  std::vector<double> rf_prev_direction_;
  std::vector<double> rf_last_;
  std::vector<SpanArena<double>::Ref> rainflow_stack_;
  SpanArena<double> rainflow_arena_;

  // Full cycle_linear cache (closed sum + residual chain, left-associated
  // exactly as the tracker computed it), invalidated by any rainflow
  // mutation; keeps recompute O(dirty stacks), bit-exact.
  // blam-ckpt: skip -- cycle_linear cache; residual_cache_valid_ starts false and entries regenerate on demand
  std::vector<double> residual_cache_;
  std::vector<std::uint8_t> residual_cache_valid_;

  // Held-report slots: held_slots_ wide per row.
  std::vector<std::uint32_t> held_count_;
  std::vector<std::uint16_t> held_seq_;
  std::vector<SpanArena<SocSample>::Ref> held_samples_;
  SpanArena<SocSample> sample_arena_;
};

}  // namespace blam
