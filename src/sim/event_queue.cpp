#include "sim/event_queue.hpp"

#include <cassert>
#include <utility>

namespace blam {

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
  heap_push(HeapEntry{time, seq, slot, s.generation});
  ++live_;
  return EventHandle{slot, s.generation};
}

std::optional<EventQueue::PendingEvent> EventQueue::lookup(EventHandle handle) const {
  if (handle.is_null() || handle.slot >= slots_.size()) return std::nullopt;
  const Slot& s = slots_[handle.slot];
  if (!s.live || s.generation != handle.generation) return std::nullopt;
  return PendingEvent{s.time, s.seq};
}

void EventQueue::clear() {
  heap_.clear();
  slots_.clear();
  free_slots_.clear();
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

Time EventQueue::next_time() {
  prune_top();
  assert(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Popped EventQueue::pop() {
  prune_top();
  assert(!heap_.empty());
  const HeapEntry top = heap_.front();
  heap_pop();
  Slot& s = slots_[top.slot];
  Popped popped{top.time, std::move(s.callback)};
  s.callback = nullptr;
  s.live = false;
  ++s.generation;  // invalidate outstanding handles
  free_slots_.push_back(top.slot);
  assert(live_ > 0);
  --live_;
  return popped;
}

void EventQueue::prune_top() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    const Slot& s = slots_[top.slot];
    if (s.live && s.generation == top.generation) return;
    // Stale (cancelled) entry: recycle its slot now that the heap no longer
    // references it.
    slots_[top.slot].generation++;
    free_slots_.push_back(top.slot);
    heap_pop();
  }
}

void EventQueue::heap_push(HeapEntry entry) {
  heap_.push_back(entry);
  sift_up(heap_.size() - 1);
}

void EventQueue::heap_pop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::sift_up(std::size_t i) {
  HeapEntry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(heap_[parent] > entry)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  HeapEntry entry = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child] > heap_[child + 1]) ++child;
    if (!(entry > heap_[child])) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = entry;
}

}  // namespace blam
