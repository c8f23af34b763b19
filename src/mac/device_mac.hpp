// Device-side MAC policy interface.
//
// The class-A transmission machinery (attempts, receive windows, ACK
// timeouts) is shared by every protocol and lives in net::Node; what varies
// between LoRaWAN, BLAM and the H-50C ablation is only (a) WHICH forecast
// window of the sampling period carries the packet and (b) the charging cap
// theta. MacPolicy captures exactly that variation, so every figure's
// protocol variants share one code path. A scenario runs one policy, so an
// engine slice holds one instance for all its nodes: each node keeps its own
// theta and passes it in through WindowContext.
#pragma once

#include <span>
#include <string>

#include "common/units.hpp"
#include "core/utility.hpp"
#include "core/window_selector.hpp"

namespace blam {

/// Everything a policy may consult when picking a window for the packet
/// generated at the start of the current sampling period.
struct WindowContext {
  /// Number of forecast windows in this sampling period (>= 1).
  int n_windows{1};
  Time window_length{};
  Time period_start{};
  /// Current stored battery energy.
  Energy battery{};
  /// Battery original capacity (theta cap base).
  Energy battery_capacity{};
  /// The node's theta: stored-energy ceiling as a fraction of original
  /// capacity.
  double soc_cap{1.0};
  /// Normalized degradation w_u received from the gateway.
  double w_u{0.0};
  /// Age of w_u in dissemination periods (0 = fresh). Counted from the
  /// node's boot when no feedback has arrived yet.
  double w_u_age_periods{0.0};
  /// Staleness threshold k (dissemination periods) after which a policy
  /// should stop trusting w_u and decay toward the conservative regime;
  /// 0 disables the fallback (the paper's behavior).
  double stale_feedback_k{0.0};
  /// Degradation-vs-utility weight w_b.
  double w_b{1.0};
  /// Forecast harvest per window (empty if the policy does not need it).
  std::span<const Energy> harvest_forecast;
  /// Estimated transmission cost per window (EWMA * expected transmissions).
  std::span<const Energy> tx_cost;
  /// Worst-case one-packet energy (DIF normalizer).
  Energy max_tx{};
  const UtilityFunction* utility{nullptr};
  /// Optional caller-owned scratch for Algorithm 1 (hot-path nodes use
  /// their slice's, next to its forecast buffers); null = the policy
  /// allocates.
  WindowSelector::Workspace* workspace{nullptr};
};

struct MacDecision {
  /// False = policy drops the packet (Algorithm 1 FAIL).
  bool transmit{true};
  /// Window index in [0, n_windows).
  int window{0};
};

class MacPolicy {
 public:
  virtual ~MacPolicy() = default;

  [[nodiscard]] virtual MacDecision select_window(const WindowContext& ctx) = 0;

  /// Theta a node boots with: stored-energy ceiling as a fraction of
  /// original capacity.
  [[nodiscard]] virtual double soc_cap() const = 0;

  /// The theta a node whose cap is `current` holds after a network-manager
  /// update to `theta` (adaptive-theta extension). Throws
  /// std::invalid_argument for a theta outside the policy's range.
  /// Default: the update is ignored (policies without a cap).
  [[nodiscard]] virtual double adopt_soc_cap(double current, double /*theta*/) const {
    return current;
  }

  /// Whether the node must compute solar forecasts and energy estimates for
  /// this policy (false for plain LoRaWAN — saves simulation time and models
  /// the overhead difference of Table I).
  [[nodiscard]] virtual bool needs_forecasts() const = 0;

  /// Whether uplinks carry the SoC trace report (BLAM protocol field).
  [[nodiscard]] virtual bool reports_soc() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace blam
