// Cancellable pending-event set for the discrete-event engine.
//
// Events live in slot storage with generation counters; the heap holds light
// (time, sequence, slot, generation) tuples. Cancellation is O(1): it bumps
// nothing in the heap, just marks the slot, and the stale heap entry is
// discarded when it reaches the top. Slots are recycled only after their heap
// entry pops, so memory stays proportional to the number of *pending* events
// even across hundreds of millions of schedule/cancel pairs.
//
// Two events at the same timestamp fire in schedule order (FIFO), which keeps
// simulations deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "sim/inline_callback.hpp"

namespace blam {

/// Opaque handle to a scheduled event; valid until the event fires or is
/// cancelled. A default-constructed handle is "null" and safe to cancel.
struct EventHandle {
  std::uint32_t slot{kNullSlot};
  std::uint32_t generation{0};

  static constexpr std::uint32_t kNullSlot = 0xffffffffu;
  [[nodiscard]] bool is_null() const { return slot == kNullSlot; }
};

class EventQueue {
 public:
  /// Inline, move-only, non-allocating callable (48-byte capture budget,
  /// enforced at compile time); scheduling never touches the heap.
  using Callback = InlineCallback;

  /// Inserts an event; `time` must not precede the last popped time (the
  /// engine enforces this, the queue only stores).
  EventHandle schedule(Time time, Callback callback);

  /// Cancels a pending event. Returns false if the handle is null, already
  /// fired, or already cancelled; cancelling such handles is harmless.
  bool cancel(EventHandle handle);

  /// True if no live (non-cancelled) event remains.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event; requires !empty().
  [[nodiscard]] Time next_time();

  /// Removes the earliest live event and returns its (time, callback).
  /// Requires !empty().
  struct Popped {
    Time time;
    Callback callback;
  };
  [[nodiscard]] Popped pop();

  /// (time, seq) of a still-pending event, or nullopt for a null, fired, or
  /// cancelled handle. O(1): the slot keeps the (time, seq) it was scheduled
  /// under, so a checkpoint of N handles costs O(N), not O(N x pending).
  struct PendingEvent {
    Time time;
    std::uint64_t seq;
  };
  [[nodiscard]] std::optional<PendingEvent> lookup(EventHandle handle) const;

  /// Re-inserts an event under its ORIGINAL sequence number (checkpoint
  /// restore). Does not advance next_seq_: the restorer replays every
  /// pending event with the seq it held at checkpoint time — in any order,
  /// since the seq is explicit — then calls set_next_seq once.
  EventHandle schedule_with_seq(Time time, std::uint64_t seq, Callback callback);

  /// Drops every event (heap, slots, free list) but keeps next_seq_; all
  /// outstanding handles become invalid. Restore wipes the construction-time
  /// schedule with this before replaying the checkpointed one.
  void clear();

  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
  void set_next_seq(std::uint64_t seq) { next_seq_ = seq; }

 private:
  struct Slot {
    Callback callback;
    Time time;  // schedule key, for lookup()
    std::uint64_t seq{0};
    std::uint32_t generation{0};
    bool live{false};
  };

  /// Takes a free slot (or grows the pool) and arms it with the event.
  EventHandle insert(Time time, std::uint64_t seq, Callback callback);

  struct HeapEntry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;

    [[nodiscard]] bool operator>(const HeapEntry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  /// Drops cancelled entries from the heap top; afterwards the top is live
  /// (or the heap is empty).
  void prune_top();

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void heap_push(HeapEntry entry);
  void heap_pop();

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_{0};
  std::size_t live_{0};
};

}  // namespace blam
