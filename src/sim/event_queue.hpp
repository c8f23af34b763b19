// Cancellable pending-event set for the discrete-event engine: an exact-order
// calendar queue (R. Brown, "Calendar Queues", CACM 1988).
//
// Events live in slot storage with generation counters. A pending event sits
// in exactly one of four places:
//
//  - the *ring*: kBuckets buckets of kBucketWidthUs each, one intrusive
//    singly-linked list per bucket threaded through Slot::next, so the ring
//    costs 16 KB of list heads and nothing else. An event goes to bucket
//    (time >> kBucketShift) & (kBuckets - 1). 4096 buckets of 2^20 us
//    (~1.05 s) span a ~71.6 min horizon, longer than the paper's longest
//    sampling period (ScenarioConfig::max_period, 60 min), so a node's next
//    period start, attempt, ACK timeout and every gateway and network-server
//    event land on the ring. (A longer configured period stays exact; its
//    period starts just go through the far heap.) Lists are unsorted; one
//    list may hold events a whole lap (or more) apart, and a drain keeps only
//    the entries of the bucket being reached.
//  - the *far heap*: events at or past the horizon (crash faults, restored
//    checkpoints) wait in a small (time, seq) min-heap and migrate onto the
//    ring as the cursor brings them within the horizon.
//  - the *current run*: when the cursor reaches a bucket, its list is drained
//    into one reused array and sorted ascending by (time, seq); pops walk it
//    through a head index. A new event in the current bucket that is not
//    earlier than the run's tail is appended (the t = 0 boot, where every
//    node schedules into bucket 0, is a string of appends).
//  - the *side heap*: any other event scheduled into the current bucket (a
//    gateway reception ending before an already-drained attempt, say) goes to
//    a small min-heap; pop takes the smaller of the run's and the side heap's
//    heads.
//
// Barrier rewind: Simulator::run_until peeks with next_time(), which may move
// the cursor past the barrier; a later schedule_at(now + delta) then lands in
// an earlier bucket. insert() handles that by spilling the run and the side
// heap back onto their list and rewinding the cursor to the new event's
// bucket. Because drains filter by absolute bucket, nothing else has to move.
//
// Order: (time, seq) everywhere, and seq assignment is the same as for any
// priority queue, so events pop in exactly the order of a binary heap and
// two events at the same timestamp fire in schedule order (FIFO).
//
// Cancellation is O(1): it marks the slot and releases its callback; the
// stale entry is discarded (and its slot recycled) when a drain, migration or
// pop reaches it, so memory stays proportional to the number of pending
// events even across hundreds of millions of schedule/cancel pairs.
//
// Lookahead prefetch: because the current bucket is a sorted array, pop()
// knows the next events. It prefetches the slot kSlotLookahead entries ahead
// and, kTargetLookahead entries ahead, the object that event's callback will
// touch: InlineCallback::prefetch_target(), the first captured word. The hot
// lambdas capture `this` first (see inline_callback.hpp), so that is the
// Node, Gateway or NetworkServer. The target only ever reaches
// __builtin_prefetch, never a dereference, so a callback that captures
// something else first costs a wasted hint, never a different result.
//
// Dead ends, kept here so nobody walks them again: a std::vector per bucket
// keeps its peak capacity (city_serial's peak RSS went from 144 to 241 MB);
// a run sorted descending and popped from the back makes the t = 0 boot
// quadratic; and the calendar without the target prefetch bought only
// ~9-15%, because the cost is the cold node a popped event lands on, not
// the queue's own comparisons.
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

  /// log2 of a bucket's width in microseconds: 2^20 us ~ 1.05 s.
  static constexpr int kBucketShift = 20;
  static constexpr std::int64_t kBucketWidthUs = std::int64_t{1} << kBucketShift;
  /// Ring size; kBuckets * kBucketWidthUs (~71.6 min) covers the default
  /// 60 min max_period, so the steady state never touches the far heap.
  static constexpr std::int64_t kBuckets = 4096;
  static_assert((kBuckets & (kBuckets - 1)) == 0, "kBuckets must be a power of two");
  static_assert(kBuckets * kBucketWidthUs > std::int64_t{60} * 60 * 1000 * 1000,
                "the ring's horizon must exceed the 60 min maximum sampling period");
  /// pop() prefetches the slot this many run entries ahead ...
  static constexpr std::size_t kSlotLookahead = 4;
  /// ... and the callback's target object this many entries ahead, over
  /// kTargetLines cache lines from the object's address: a Node is
  /// line-aligned and 13 x 64 = 832 B, so the lookahead covers exactly its
  /// lines (node.cpp asserts both).
  static constexpr std::size_t kTargetLookahead = 2;
  static constexpr int kTargetLines = 13;

  /// Inserts an event; `time` must not precede the last popped time (the
  /// engine enforces this, the queue only stores).
  EventHandle schedule(Time time, Callback callback);

  /// Sizes the slot pool for `events` slots, so scheduling never regrows it
  /// while no more than that many events (pending or cancelled but not yet
  /// reached) hold a slot. The pool still grows past it if it must.
  void reserve(std::size_t events) { slots_.reserve(events); }

  /// Cancels a pending event. Returns false if the handle is null, already
  /// fired, or already cancelled; cancelling such handles is harmless.
  bool cancel(EventHandle handle);

  /// True if no live (non-cancelled) event remains.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event; requires !empty(). May advance the
  /// cursor past buckets that hold nothing live.
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

  /// Drops every event (ring, run, heaps, slots, free list) but keeps
  /// next_seq_; all outstanding handles become invalid. Restore wipes the
  /// construction-time schedule with this before replaying the checkpointed
  /// one.
  void clear();

  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
  void set_next_seq(std::uint64_t seq) { next_seq_ = seq; }

 private:
  static constexpr std::uint32_t kNil = EventHandle::kNullSlot;

  struct Slot {
    Callback callback;
    Time time;  // schedule key, for lookup() and the drain's bucket filter
    std::uint64_t seq{0};
    std::uint32_t generation{0};
    std::uint32_t next{kNil};  // ring list link
    bool live{false};
  };

  /// A (time, seq) key with its slot: the element of the run and both heaps.
  struct Entry {
    std::int64_t time_us;
    std::uint64_t seq;
    std::uint32_t slot;

    [[nodiscard]] bool operator<(const Entry& other) const {
      if (time_us != other.time_us) return time_us < other.time_us;
      return seq < other.seq;
    }
    [[nodiscard]] bool operator>(const Entry& other) const { return other < *this; }
  };

  [[nodiscard]] static std::int64_t bucket_of(std::int64_t time_us) {
    return time_us >> kBucketShift;
  }
  [[nodiscard]] std::uint32_t& head_of(std::int64_t bucket) {
    return heads_[static_cast<std::size_t>(bucket & (kBuckets - 1))];
  }

  /// Takes a free slot (or grows the pool), arms it and files it.
  EventHandle insert(Time time, std::uint64_t seq, Callback callback);
  /// Files an armed slot by its bucket: run/side heap, ring, or far heap.
  void place(std::uint32_t slot);
  void push_list(std::int64_t bucket, std::uint32_t slot);
  /// Returns the current bucket's entries to their list so the cursor can
  /// move back to `bucket`.
  void rewind_to(std::int64_t bucket);
  /// Discards stale heads and advances the cursor until the run or the side
  /// heap holds a live head. Requires live_ > 0.
  void settle_front();
  /// Moves the cursor to the next bucket holding anything and drains it.
  void advance();
  /// Returns a slot whose entry no longer sits anywhere to the free list.
  void recycle(std::uint32_t slot);
  /// True when the next event is the run's head rather than the side
  /// heap's. Call after settle_front, which leaves at least one non-empty.
  [[nodiscard]] bool run_first() const;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> heads_ = std::vector<std::uint32_t>(kBuckets, kNil);
  std::vector<Entry> run_;   // the current bucket, sorted; pops from run_head_
  std::size_t run_head_{0};
  std::vector<Entry> side_;  // min-heap: late arrivals in the current bucket
  std::vector<Entry> far_;   // min-heap: events at or past the horizon
  std::int64_t cursor_{0};   // absolute index of the current bucket
  std::size_t on_ring_{0};   // entries (live or stale) in the ring's lists
  std::uint64_t next_seq_{0};
  std::size_t live_{0};
};

}  // namespace blam
