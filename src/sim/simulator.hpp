// Discrete-event simulation engine: a clock plus a cancellable event queue.
//
// This is the NS-3-core substitute the rest of the repository runs on. The
// engine is single-threaded and deterministic: same scenario seed, same event
// trace. Callbacks may schedule and cancel further events freely, including
// at the current timestamp (they run after the current callback returns).
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "sim/event_queue.hpp"

namespace blam {

class Auditor;

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  /// Attaches the invariant auditor (nullptr detaches): every event pop is
  /// reported for timestamp-monotonicity checking. The engine does not own
  /// the auditor; with none attached the hook is a single null test.
  void attach_auditor(Auditor* auditor) { audit_ = auditor; }

  /// Current simulation time. Starts at zero.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `callback` at absolute time `at`; `at` must be >= now().
  /// Throws std::invalid_argument on an attempt to schedule in the past.
  EventHandle schedule_at(Time at, Callback callback);

  /// Schedules `callback` after a non-negative delay.
  EventHandle schedule_in(Time delay, Callback callback);

  /// Sizes the event queue's slot pool once (EventQueue::reserve).
  void reserve_events(std::size_t events) { queue_.reserve(events); }

  /// Cancels a pending event; harmless on null/fired/cancelled handles.
  bool cancel(EventHandle handle) { return queue_.cancel(handle); }

  /// Runs events with time <= `until`, then sets the clock to `until`
  /// (even if the queue drained earlier).
  void run_until(Time until);

  /// Number of events executed since construction.
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Number of currently pending events.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  // --- Checkpoint surface (cold path; see sim/checkpoint.hpp) ---

  /// (time, seq) of a pending event, or nullopt for null/fired/cancelled
  /// handles.
  [[nodiscard]] std::optional<EventQueue::PendingEvent> lookup(EventHandle handle) const {
    return queue_.lookup(handle);
  }

  /// Drops all pending events; outstanding handles become invalid. The seq
  /// counter is preserved (restore sets it explicitly via restore_clock).
  void clear_events() { queue_.clear(); }

  /// Re-inserts an event under its checkpointed sequence number. `at` must
  /// be >= now() (std::runtime_error otherwise); restore runs at now()==0
  /// so every future time qualifies.
  EventHandle schedule_at_seq(Time at, std::uint64_t seq, Callback callback);

  [[nodiscard]] std::uint64_t next_event_seq() const { return queue_.next_seq(); }

  /// Rewinds/advances the engine clock to a checkpointed position. Call
  /// AFTER every component has replayed its pending events (their explicit
  /// seqs are independent of the counter this sets).
  void restore_clock(Time now, std::uint64_t executed, std::uint64_t next_seq) {
    now_ = now;
    executed_ = executed;
    queue_.set_next_seq(next_seq);
  }

 private:
  EventQueue queue_;
  Time now_{Time::zero()};
  std::uint64_t executed_{0};
  // blam-ckpt: skip -- wiring, re-attached at construction; Network checkpoints the auditor
  Auditor* audit_{nullptr};
};

/// Repeatedly invokes a callback at a fixed period, starting at `first`.
/// The callback receives the simulator so it can reschedule-free run logic.
/// Owns its pending event; destroying the process cancels it.
class PeriodicProcess {
 public:
  // Same non-allocating callable the event queue itself uses: ticks fire on
  // the hot path, so the periodic closure lives in the 48-byte inline
  // buffer rather than behind a std::function heap cell.
  using Tick = InlineCallback;

  PeriodicProcess(Simulator& sim, Time first, Time period, Tick tick);
  ~PeriodicProcess();

  PeriodicProcess(const PeriodicProcess&) = delete;
  PeriodicProcess& operator=(const PeriodicProcess&) = delete;

  /// Stops future ticks.
  void cancel();

  [[nodiscard]] Time period() const { return period_; }

  /// Handle of the armed tick event (checkpoint path: look it up in the
  /// simulator to learn its fire time and seq).
  [[nodiscard]] EventHandle pending_handle() const { return pending_; }

  /// Re-arms the tick at a checkpointed (time, seq), replacing whatever is
  /// currently armed. The closure is identical to arm()'s, so subsequent
  /// ticks chain exactly as in the original run.
  void restore_arm(Time at, std::uint64_t seq);

 private:
  void arm(Time at);

  Simulator& sim_;
  Time period_;
  Tick tick_;
  EventHandle pending_{};
};

}  // namespace blam
