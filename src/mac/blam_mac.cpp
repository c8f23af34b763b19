#include "mac/blam_mac.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace blam {

BlamMac::BlamMac(double theta) : theta_{theta} {
  if (theta <= 0.0 || theta > 1.0) {
    throw std::invalid_argument{"BlamMac: theta must be in (0,1]"};
  }
}

MacDecision BlamMac::select_window(const WindowContext& ctx) {
  WindowSelectorInput input;
  input.battery = ctx.battery;
  input.storage_cap = ctx.battery_capacity * ctx.soc_cap;
  input.w_u = effective_w_u(ctx);
  input.w_b = ctx.w_b;
  input.harvest = ctx.harvest_forecast;
  input.tx_cost = ctx.tx_cost;
  input.max_tx = ctx.max_tx;
  input.utility = ctx.utility;
  const WindowSelection selection = ctx.workspace != nullptr
                                        ? selector_.select(input, *ctx.workspace)
                                        : selector_.select(input);
  return MacDecision{selection.success, selection.success ? selection.window : 0};
}

double BlamMac::adopt_soc_cap(double /*current*/, double theta) const {
  if (theta <= 0.0 || theta > 1.0) {
    throw std::invalid_argument{"BlamMac::adopt_soc_cap: theta must be in (0,1]"};
  }
  return theta;
}

double BlamMac::effective_w_u(const WindowContext& ctx) {
  // Graceful degradation under stale feedback: w_u arrives once per
  // dissemination period piggybacked on ACKs, so a gateway outage (or a
  // burst of lost downlinks) leaves the node steering on an obsolete
  // weight. Trusting a stale LOW w_u is the dangerous direction — the node
  // keeps spending battery as if its pack were healthy. Past k periods of
  // silence the weight ramps linearly toward 1 (full DIF influence, the
  // conservative regime) over another k periods, and fresh feedback snaps
  // it back instantly.
  if (ctx.stale_feedback_k <= 0.0 || ctx.w_u_age_periods <= ctx.stale_feedback_k) {
    return ctx.w_u;
  }
  const double over = ctx.w_u_age_periods - ctx.stale_feedback_k;
  const double blend = std::min(1.0, over / ctx.stale_feedback_k);
  return ctx.w_u + (1.0 - ctx.w_u) * blend;
}

std::string BlamMac::name() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "H-%.0f", theta_ * 100.0);
  return buf;
}

}  // namespace blam
