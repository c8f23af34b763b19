#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace blam {

namespace {

constexpr std::uintptr_t kLineBytes = 64;

/// Hints every cache line of [p, p + bytes) into cache. Never dereferences.
void prefetch_lines(const void* p, std::size_t bytes) {
  const auto begin = reinterpret_cast<std::uintptr_t>(p) & ~(kLineBytes - 1);
  const auto end = reinterpret_cast<std::uintptr_t>(p) + bytes;
  for (std::uintptr_t line = begin; line < end; line += kLineBytes) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
}

}  // namespace

EventHandle EventQueue::schedule(Time time, Callback callback) {
  return insert(time, next_seq_++, std::move(callback));
}

EventHandle EventQueue::schedule_with_seq(Time time, std::uint64_t seq, Callback callback) {
  return insert(time, seq, std::move(callback));
}

EventHandle EventQueue::insert(Time time, std::uint64_t seq, Callback callback) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.callback = std::move(callback);
  s.time = time;
  s.seq = seq;
  s.live = true;
  place(slot);
  ++live_;
  return EventHandle{slot, s.generation};
}

void EventQueue::place(std::uint32_t slot) {
  const Entry e{slots_[slot].time.us(), slots_[slot].seq, slot};
  const std::int64_t bucket = bucket_of(e.time_us);
  if (bucket < cursor_) rewind_to(bucket);
  if (bucket == cursor_) {
    if (run_head_ == run_.size()) {
      run_.clear();
      run_head_ = 0;
    }
    if (run_.empty() || !(e < run_.back())) {
      run_.push_back(e);
    } else {
      side_.push_back(e);
      std::push_heap(side_.begin(), side_.end(), std::greater<>{});
    }
  } else if (bucket - cursor_ < kBuckets) {
    push_list(bucket, slot);
  } else {
    far_.push_back(e);
    std::push_heap(far_.begin(), far_.end(), std::greater<>{});
  }
}

void EventQueue::push_list(std::int64_t bucket, std::uint32_t slot) {
  std::uint32_t& head = head_of(bucket);
  slots_[slot].next = head;
  head = slot;
  ++on_ring_;
}

void EventQueue::rewind_to(std::int64_t bucket) {
  const auto spill = [this](std::uint32_t slot) {
    if (slots_[slot].live) {
      push_list(cursor_, slot);
    } else {
      recycle(slot);
    }
  };
  for (std::size_t i = run_head_; i < run_.size(); ++i) spill(run_[i].slot);
  for (const Entry& e : side_) spill(e.slot);
  run_.clear();
  run_head_ = 0;
  side_.clear();
  cursor_ = bucket;
}

std::optional<EventQueue::PendingEvent> EventQueue::lookup(EventHandle handle) const {
  if (handle.is_null() || handle.slot >= slots_.size()) return std::nullopt;
  const Slot& s = slots_[handle.slot];
  if (!s.live || s.generation != handle.generation) return std::nullopt;
  return PendingEvent{s.time, s.seq};
}

void EventQueue::clear() {
  slots_.clear();
  free_slots_.clear();
  std::fill(heads_.begin(), heads_.end(), kNil);
  run_.clear();
  run_head_ = 0;
  side_.clear();
  far_.clear();
  cursor_ = 0;
  on_ring_ = 0;
  live_ = 0;
}

bool EventQueue::cancel(EventHandle handle) {
  if (handle.is_null() || handle.slot >= slots_.size()) return false;
  Slot& s = slots_[handle.slot];
  if (!s.live || s.generation != handle.generation) return false;
  s.live = false;
  s.callback = nullptr;  // release captured state eagerly
  assert(live_ > 0);
  --live_;
  return true;
}

void EventQueue::recycle(std::uint32_t slot) {
  ++slots_[slot].generation;
  free_slots_.push_back(slot);
}

bool EventQueue::run_first() const {
  if (run_head_ == run_.size()) return false;
  return side_.empty() || run_[run_head_] < side_.front();
}

void EventQueue::settle_front() {
  assert(live_ > 0);
  for (;;) {
    while (run_head_ < run_.size() && !slots_[run_[run_head_].slot].live) {
      recycle(run_[run_head_++].slot);
    }
    while (!side_.empty() && !slots_[side_.front().slot].live) {
      recycle(side_.front().slot);
      std::pop_heap(side_.begin(), side_.end(), std::greater<>{});
      side_.pop_back();
    }
    if (run_head_ < run_.size() || !side_.empty()) return;
    advance();
  }
}

void EventQueue::advance() {
  run_.clear();
  run_head_ = 0;
  do {
    if (on_ring_ == 0) {
      // Only the far heap holds anything: jump straight to its first bucket
      // (which the invariant far >= cursor + kBuckets puts ahead).
      assert(!far_.empty());
      cursor_ = bucket_of(far_.front().time_us);
    } else {
      ++cursor_;
    }
    while (!far_.empty() && bucket_of(far_.front().time_us) - cursor_ < kBuckets) {
      std::pop_heap(far_.begin(), far_.end(), std::greater<>{});
      const Entry e = far_.back();
      far_.pop_back();
      if (slots_[e.slot].live) {
        push_list(bucket_of(e.time_us), e.slot);
      } else {
        recycle(e.slot);
      }
    }
    // Drain this bucket's entries; a list may also hold later laps, which
    // stay linked.
    std::uint32_t* link = &head_of(cursor_);
    while (*link != kNil) {
      const std::uint32_t slot = *link;
      Slot& s = slots_[slot];
      if (bucket_of(s.time.us()) != cursor_) {
        link = &s.next;
        continue;
      }
      *link = s.next;
      --on_ring_;
      if (s.live) {
        run_.push_back(Entry{s.time.us(), s.seq, slot});
      } else {
        recycle(slot);
      }
    }
  } while (run_.empty());
  std::sort(run_.begin(), run_.end());
}

Time EventQueue::next_time() {
  settle_front();
  return Time::from_us(run_first() ? run_[run_head_].time_us : side_.front().time_us);
}

EventQueue::Popped EventQueue::pop() {
  settle_front();
  std::uint32_t slot;
  if (run_first()) {
    const std::size_t i = run_head_++;
    slot = run_[i].slot;
    if (i + kSlotLookahead < run_.size()) {
      prefetch_lines(&slots_[run_[i + kSlotLookahead].slot], sizeof(Slot));
    }
    if (i + kTargetLookahead < run_.size()) {
      const void* target = slots_[run_[i + kTargetLookahead].slot].callback.prefetch_target();
      if (target != nullptr) prefetch_lines(target, kTargetLines * kLineBytes);
    }
  } else {
    slot = side_.front().slot;
    std::pop_heap(side_.begin(), side_.end(), std::greater<>{});
    side_.pop_back();
  }
  Slot& s = slots_[slot];
  Popped popped{s.time, std::move(s.callback)};
  s.live = false;
  recycle(slot);  // bumps the generation: outstanding handles go stale
  assert(live_ > 0);
  --live_;
  return popped;
}

}  // namespace blam
