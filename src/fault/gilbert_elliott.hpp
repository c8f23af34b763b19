// Gilbert-Elliott two-state burst-loss channel, continuous-time variant.
//
// The classic Gilbert-Elliott model alternates between a GOOD and a BAD
// state with geometric sojourns and a per-packet loss probability in each
// state. Downlink ACKs are sparse (one per delivered uplink), so a
// per-packet chain would make burst lengths depend on traffic intensity;
// instead the chain lives in continuous time with exponentially distributed
// sojourn durations, and each query advances the state to the query
// timestamp before drawing the loss Bernoulli. Queries must be
// non-decreasing in time (the simulator processes events in order).
#pragma once

#include "common/rng.hpp"
#include "common/units.hpp"

namespace blam {

class GilbertElliott {
 public:
  struct Params {
    /// Per-packet loss probability while in the good / bad state.
    double loss_good{0.0};
    double loss_bad{1.0};
    /// Mean sojourn duration of each state (exponentially distributed).
    Time good_mean{Time::from_minutes(30.0)};
    Time bad_mean{Time::from_minutes(2.0)};
  };

  /// The chain starts in the good state at t = 0; `rng` must be a dedicated
  /// stream (the chain consumes draws for sojourns and loss decisions).
  GilbertElliott(const Params& params, Rng rng);

  /// Advances the chain to `now` and draws whether a packet sent at `now`
  /// is lost.
  [[nodiscard]] bool lost(Time now);

  /// Chain state for engine checkpoints (params are rebuilt from config).
  struct State {
    Rng::State rng{};
    bool bad{false};
    Time state_until{};
  };

  [[nodiscard]] State state() const { return State{rng_.state(), bad_, state_until_}; }

  void restore(const State& state) {
    rng_.restore(state.rng);
    bad_ = state.bad;
    state_until_ = state.state_until;
  }

 private:
  void advance(Time now);

  Params params_;
  Rng rng_;
  bool bad_{false};
  /// The current sojourn ends at this instant.
  Time state_until_{};
};

}  // namespace blam
