// Baseline LoRaWAN behaviour (pure ALOHA): transmit in the first forecast
// window, i.e. immediately after the packet is generated, and never cap the
// battery (theta = 1). This is the paper's comparison baseline.
//
// ThetaOnlyMac is the paper's H-50C ablation: the charging cap without the
// forecast-window selection algorithm.
#pragma once

#include "mac/device_mac.hpp"

namespace blam {

class LorawanMac final : public MacPolicy {
 public:
  [[nodiscard]] MacDecision select_window(const WindowContext& ctx) override;
  [[nodiscard]] double soc_cap() const override { return 1.0; }
  [[nodiscard]] bool needs_forecasts() const override { return false; }
  [[nodiscard]] bool reports_soc() const override { return false; }
  [[nodiscard]] std::string name() const override { return "LoRaWAN"; }
};

class ThetaOnlyMac final : public MacPolicy {
 public:
  explicit ThetaOnlyMac(double theta);

  [[nodiscard]] MacDecision select_window(const WindowContext& ctx) override;
  [[nodiscard]] double soc_cap() const override { return theta_; }
  [[nodiscard]] double adopt_soc_cap(double current, double theta) const override;
  [[nodiscard]] bool needs_forecasts() const override { return false; }
  /// The gateway still tracks degradation for metrics, but H-50C does not
  /// use w_u; reporting stays on so Fig. 7 can compare fairly.
  [[nodiscard]] bool reports_soc() const override { return true; }
  [[nodiscard]] std::string name() const override;

 private:
  double theta_;
};

}  // namespace blam
