#include "common/units.hpp"

#include <cmath>
#include <cstdio>

namespace blam {

namespace {

std::string format(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}

}  // namespace

std::string Time::to_string() const {
  const double s = seconds();
  if (std::abs(s) < 1e-3) return format("%.0f us", static_cast<double>(us_));
  if (std::abs(s) < 1.0) return format("%.3f ms", s * 1e3);
  if (std::abs(s) < 120.0) return format("%.3f s", s);
  if (std::abs(s) < 7200.0) return format("%.2f min", s / 60.0);
  if (std::abs(s) < 2.0 * 86400.0) return format("%.2f h", s / 3600.0);
  return format("%.2f d", s / 86400.0);
}

std::string Energy::to_string() const {
  if (std::abs(j_) < 1.0) return format("%.3f mJ", j_ * 1e3);
  return format("%.3f J", j_);
}

std::string Power::to_string() const {
  if (std::abs(w_) < 1.0) return format("%.3f mW", w_ * 1e3);
  return format("%.3f W", w_);
}

double dbm_to_watts(double dbm) { return std::pow(10.0, (dbm - 30.0) / 10.0); }

}  // namespace blam
