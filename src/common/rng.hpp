// Deterministic random-number generation with independent per-entity streams.
//
// Every node, the channel model and the workload generator each own an
// independent Rng stream derived from a single scenario seed, so adding a node
// or reordering events never perturbs the random draws of unrelated entities.
// The generator is xoshiro256++ seeded through splitmix64, which is both fast
// and of high statistical quality.
#pragma once

#include <array>
#include <cstdint>

namespace blam {

/// splitmix64 step; used for seeding and stream derivation.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// The RNG-salt registry: every stream/fork salt used anywhere in src/ lives
/// here, under a name that says which subsystem owns the derived stream.
/// One table makes collisions impossible to miss (two forks of the same
/// parent with equal salts draw identical sequences) and keeps every stream
/// derivation greppable. blam-analyze rule R1 enforces this: literal salts
/// at call sites and duplicate values in this table are errors.
namespace salt {

/// Stream id of every scenario root `Rng{seed, kRootStream}`.
inline constexpr std::uint64_t kRootStream = 0;
/// Stream id of the solar trace generator (independent of the root chain so
/// traces can be shared across scenarios with different seeds).
inline constexpr std::uint64_t kSolarTrace = 0x501a7;

// Forks of the scenario root.
inline constexpr std::uint64_t kTopology = 0x7090;
inline constexpr std::uint64_t kShadowing = 0x5ad0;
inline constexpr std::uint64_t kTraffic = 0x7aff1c;
inline constexpr std::uint64_t kFaultPlan = 0xfa17;
/// Per-node streams are `fork(kNodeStreamBase + node index)`.
inline constexpr std::uint64_t kNodeStreamBase = 0x0de;

// Forks of the fault-plan stream (one per fault source, so the sources stay
// independent and adding one never shifts another's draws).
inline constexpr std::uint64_t kOutage = 0x007a6e;
inline constexpr std::uint64_t kAckChannel = 0xacc0;
inline constexpr std::uint64_t kCrash = 0xc4a5;
inline constexpr std::uint64_t kReportPipe = 0x5eb0;

}  // namespace salt

/// xoshiro256++ engine with convenience distributions.
class Rng {
 public:
  /// Seeds the stream from a root seed and a stream identifier. Streams with
  /// distinct (seed, stream) pairs are statistically independent.
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0);

  /// Raw 64 uniform bits.
  [[nodiscard]] std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform();

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second value).
  [[nodiscard]] double normal();

  /// Normal with given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev);

  /// Exponential with given mean; mean must be > 0.
  [[nodiscard]] double exponential(double mean);

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p);

  /// Derives a child stream; deterministic in (this stream's seed, salt).
  [[nodiscard]] Rng fork(std::uint64_t salt) const;

  /// Complete engine state, for engine checkpoints: the xoshiro words plus
  /// the Box-Muller cache. Restoring it resumes the draw sequence exactly.
  struct State {
    std::array<std::uint64_t, 4> s{};
    std::uint64_t seed{0};
    std::uint64_t stream{0};
    double cached_normal{0.0};
    bool has_cached_normal{false};
  };

  [[nodiscard]] State state() const {
    return State{s_, seed_, stream_, cached_normal_, has_cached_normal_};
  }

  void restore(const State& state) {
    s_ = state.s;
    seed_ = state.seed;
    stream_ = state.stream;
    cached_normal_ = state.cached_normal;
    has_cached_normal_ = state.has_cached_normal;
  }

 private:
  std::array<std::uint64_t, 4> s_{};
  std::uint64_t seed_{0};
  std::uint64_t stream_{0};
  double cached_normal_{0.0};
  bool has_cached_normal_{false};
};

}  // namespace blam
