// Strongly-typed physical quantities used throughout the simulator.
//
// Time is an integer count of microseconds so that event ordering is exact
// and reproducible; Power and Energy are doubles (watts / joules) wrapped in
// distinct types so that e.g. a power cannot be accidentally added to an
// energy. Cross-type arithmetic implements the physics:
//   Energy = Power * Time,  Power = Energy / Time,  Time = Energy / Power.
#pragma once

#include <cassert>
#include <compare>
#include <cstdint>
#include <limits>
#include <string>

namespace blam {

/// Simulation time: signed 64-bit count of microseconds since simulation
/// start. Signed so that durations (differences) are representable.
class Time {
 public:
  constexpr Time() = default;

  [[nodiscard]] static constexpr Time from_us(std::int64_t us) { return Time{us}; }
  [[nodiscard]] static constexpr Time from_ms(std::int64_t ms) { return Time{ms * 1000}; }
  [[nodiscard]] static constexpr Time from_seconds(double s) {
    // Round to the nearest microsecond: truncation would make airtimes like
    // 41.216 ms land on 41.215 ms.
    const double us = s * 1e6;
    return Time{static_cast<std::int64_t>(us >= 0.0 ? us + 0.5 : us - 0.5)};
  }
  [[nodiscard]] static constexpr Time from_minutes(double m) { return from_seconds(m * 60.0); }
  [[nodiscard]] static constexpr Time from_hours(double h) { return from_seconds(h * 3600.0); }
  [[nodiscard]] static constexpr Time from_days(double d) { return from_hours(d * 24.0); }

  [[nodiscard]] static constexpr Time zero() { return Time{0}; }
  [[nodiscard]] static constexpr Time max() {
    return Time{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t us() const { return us_; }
  [[nodiscard]] constexpr double seconds() const { return static_cast<double>(us_) * 1e-6; }
  [[nodiscard]] constexpr double minutes() const { return seconds() / 60.0; }
  [[nodiscard]] constexpr double hours() const { return seconds() / 3600.0; }
  [[nodiscard]] constexpr double days() const { return hours() / 24.0; }

  constexpr auto operator<=>(const Time&) const = default;

  constexpr Time& operator+=(Time rhs) {
    us_ += rhs.us_;
    return *this;
  }
  constexpr Time& operator-=(Time rhs) {
    us_ -= rhs.us_;
    return *this;
  }
  [[nodiscard]] friend constexpr Time operator+(Time a, Time b) { return Time{a.us_ + b.us_}; }
  [[nodiscard]] friend constexpr Time operator-(Time a, Time b) { return Time{a.us_ - b.us_}; }
  [[nodiscard]] friend constexpr Time operator*(Time a, std::int64_t k) { return Time{a.us_ * k}; }
  [[nodiscard]] friend constexpr Time operator*(std::int64_t k, Time a) { return Time{a.us_ * k}; }
  // Plain-int overloads so `t * 3` is not ambiguous between the integer and
  // floating scalers.
  [[nodiscard]] friend constexpr Time operator*(Time a, int k) { return Time{a.us_ * k}; }
  [[nodiscard]] friend constexpr Time operator*(int k, Time a) { return Time{a.us_ * k}; }
  [[nodiscard]] friend constexpr std::int64_t operator/(Time a, Time b) { return a.us_ / b.us_; }
  [[nodiscard]] friend constexpr Time operator%(Time a, Time b) { return Time{a.us_ % b.us_}; }

  /// Fractional scaling, rounding to the nearest microsecond.
  [[nodiscard]] friend constexpr Time operator*(Time a, double k) {
    return Time{static_cast<std::int64_t>(static_cast<double>(a.us_) * k)};
  }

  [[nodiscard]] std::string to_string() const;

 private:
  explicit constexpr Time(std::int64_t us) : us_{us} {}
  std::int64_t us_{0};
};

/// Energy in joules.
class Energy {
 public:
  constexpr Energy() = default;
  [[nodiscard]] static constexpr Energy from_joules(double j) { return Energy{j}; }
  [[nodiscard]] static constexpr Energy zero() { return Energy{0.0}; }

  [[nodiscard]] constexpr double joules() const { return j_; }

  constexpr auto operator<=>(const Energy&) const = default;

  constexpr Energy& operator+=(Energy rhs) {
    j_ += rhs.j_;
    return *this;
  }
  constexpr Energy& operator-=(Energy rhs) {
    j_ -= rhs.j_;
    return *this;
  }
  [[nodiscard]] friend constexpr Energy operator+(Energy a, Energy b) {
    return Energy{a.j_ + b.j_};
  }
  [[nodiscard]] friend constexpr Energy operator-(Energy a, Energy b) {
    return Energy{a.j_ - b.j_};
  }
  [[nodiscard]] friend constexpr Energy operator*(Energy a, double k) { return Energy{a.j_ * k}; }
  [[nodiscard]] friend constexpr Energy operator*(double k, Energy a) { return Energy{a.j_ * k}; }
  [[nodiscard]] friend constexpr Energy operator/(Energy a, double k) { return Energy{a.j_ / k}; }
  [[nodiscard]] friend constexpr double operator/(Energy a, Energy b) { return a.j_ / b.j_; }

  [[nodiscard]] std::string to_string() const;

 private:
  explicit constexpr Energy(double j) : j_{j} {}
  double j_{0.0};
};

/// Power in watts.
class Power {
 public:
  constexpr Power() = default;
  [[nodiscard]] static constexpr Power from_watts(double w) { return Power{w}; }
  [[nodiscard]] static constexpr Power from_milli_watts(double mw) { return Power{mw * 1e-3}; }
  [[nodiscard]] static constexpr Power zero() { return Power{0.0}; }

  [[nodiscard]] constexpr double watts() const { return w_; }

  constexpr auto operator<=>(const Power&) const = default;

  constexpr Power& operator+=(Power rhs) {
    w_ += rhs.w_;
    return *this;
  }
  constexpr Power& operator-=(Power rhs) {
    w_ -= rhs.w_;
    return *this;
  }
  [[nodiscard]] friend constexpr Power operator+(Power a, Power b) { return Power{a.w_ + b.w_}; }
  [[nodiscard]] friend constexpr Power operator-(Power a, Power b) { return Power{a.w_ - b.w_}; }
  [[nodiscard]] friend constexpr Power operator*(Power a, double k) { return Power{a.w_ * k}; }
  [[nodiscard]] friend constexpr Power operator*(double k, Power a) { return Power{a.w_ * k}; }
  [[nodiscard]] friend constexpr double operator/(Power a, Power b) { return a.w_ / b.w_; }

  [[nodiscard]] std::string to_string() const;

 private:
  explicit constexpr Power(double w) : w_{w} {}
  double w_{0.0};
};

[[nodiscard]] constexpr Energy operator*(Power p, Time t) {
  return Energy::from_joules(p.watts() * t.seconds());
}
[[nodiscard]] constexpr Energy operator*(Time t, Power p) { return p * t; }
[[nodiscard]] constexpr Power operator/(Energy e, Time t) {
  return Power::from_watts(e.joules() / t.seconds());
}
[[nodiscard]] constexpr Time operator/(Energy e, Power p) {
  return Time::from_seconds(e.joules() / p.watts());
}

/// dBm to watts, for the interference energy integral (`lora/interference`).
[[nodiscard]] double dbm_to_watts(double dbm);

}  // namespace blam
