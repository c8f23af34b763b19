// The proposed battery lifespan-aware MAC policy: Algorithm 1 over the
// forecast windows of each sampling period, with the theta charging cap.
// H-5 / H-50 / H-100 in the paper are this policy with theta = 0.05 / 0.5 /
// 1.0.
#pragma once

#include "core/window_selector.hpp"
#include "mac/device_mac.hpp"

namespace blam {

class BlamMac final : public MacPolicy {
 public:
  explicit BlamMac(double theta);

  [[nodiscard]] MacDecision select_window(const WindowContext& ctx) override;
  [[nodiscard]] double soc_cap() const override { return theta_; }
  [[nodiscard]] double adopt_soc_cap(double current, double theta) const override;
  [[nodiscard]] bool needs_forecasts() const override { return true; }
  [[nodiscard]] bool reports_soc() const override { return true; }
  [[nodiscard]] std::string name() const override;

  /// The w_u actually fed to Algorithm 1: the reported value while fresh,
  /// decayed toward 1 (conservative) once it is older than
  /// ctx.stale_feedback_k dissemination periods. Exposed for tests.
  [[nodiscard]] static double effective_w_u(const WindowContext& ctx);

 private:
  double theta_;
  // blam-ckpt: skip -- stateless selection strategy, rebuilt at construction
  WindowSelector selector_;
};

}  // namespace blam
