#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

#include "audit/audit.hpp"

namespace blam {

EventHandle Simulator::schedule_at(Time at, Callback callback) {
  if (at < now_) {
    throw std::invalid_argument{"Simulator::schedule_at: time " + at.to_string() +
                                " precedes now " + now_.to_string()};
  }
  return queue_.schedule(at, std::move(callback));
}

EventHandle Simulator::schedule_in(Time delay, Callback callback) {
  if (delay < Time::zero()) {
    throw std::invalid_argument{"Simulator::schedule_in: negative delay " + delay.to_string()};
  }
  return queue_.schedule(now_ + delay, std::move(callback));
}

EventHandle Simulator::schedule_at_seq(Time at, std::uint64_t seq, Callback callback) {
  if (at < now_) {
    // The time comes off a checkpoint stream: a damaged stream, not a
    // caller bug.
    throw std::runtime_error{"Simulator::schedule_at_seq: time " + at.to_string() +
                             " precedes now " + now_.to_string()};
  }
  return queue_.schedule_with_seq(at, seq, std::move(callback));
}

void Simulator::run_until(Time until) {
  while (!queue_.empty() && queue_.next_time() <= until) {
    auto [time, callback] = queue_.pop();
    if (audit_ != nullptr) audit_->on_event_pop(now_, time);
    now_ = time;
    ++executed_;
    callback();
  }
  if (now_ < until) now_ = until;
}

PeriodicProcess::PeriodicProcess(Simulator& sim, Time first, Time period, Tick tick)
    : sim_{sim}, period_{period}, tick_{std::move(tick)} {
  if (period <= Time::zero()) {
    throw std::invalid_argument{"PeriodicProcess: period must be positive"};
  }
  arm(first);
}

PeriodicProcess::~PeriodicProcess() { cancel(); }

void PeriodicProcess::cancel() {
  sim_.cancel(pending_);
  pending_ = EventHandle{};
}

void PeriodicProcess::arm(Time at) {
  pending_ = sim_.schedule_at(at, [this] {
    arm(sim_.now() + period_);
    tick_();
  });
}

void PeriodicProcess::restore_arm(Time at, std::uint64_t seq) {
  sim_.cancel(pending_);
  pending_ = sim_.schedule_at_seq(at, seq, [this] {
    arm(sim_.now() + period_);
    tick_();
  });
}

}  // namespace blam
