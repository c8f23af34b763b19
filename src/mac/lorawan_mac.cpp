#include "mac/lorawan_mac.hpp"

#include <cstdio>
#include <stdexcept>

namespace blam {

MacDecision LorawanMac::select_window(const WindowContext& ctx) {
  (void)ctx;
  return MacDecision{true, 0};  // pure ALOHA: send immediately
}

ThetaOnlyMac::ThetaOnlyMac(double theta) : theta_{theta} {
  if (theta < 0.0 || theta > 1.0) {
    throw std::invalid_argument{"ThetaOnlyMac: theta must be in [0,1]"};
  }
}

MacDecision ThetaOnlyMac::select_window(const WindowContext& ctx) {
  (void)ctx;
  return MacDecision{true, 0};
}

double ThetaOnlyMac::adopt_soc_cap(double /*current*/, double theta) const {
  if (theta < 0.0 || theta > 1.0) {
    throw std::invalid_argument{"ThetaOnlyMac::adopt_soc_cap: theta must be in [0,1]"};
  }
  return theta;
}

std::string ThetaOnlyMac::name() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "H-%.0fC", theta_ * 100.0);
  return buf;
}

}  // namespace blam
