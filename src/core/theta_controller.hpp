// Adaptive theta: a closed-loop network-manager policy for the charging cap.
//
// The paper leaves theta to the operator ("the network manager may
// configure theta considering the application requirement") and shows the
// trade-off: a low cap minimizes calendar aging but starves nights (H-5's
// packet drops); a high cap wastes lifespan. This controller closes the
// loop per node at the server:
//
//   * packet loss is inferred from sequence-number gaps (the server needs
//     no extra signaling: a delivered seq that skips k values means k lost
//     packets);
//   * a node whose recent loss exceeds `loss_raise` gets a higher theta
//     (more night budget); one comfortably below `loss_lower` gets a lower
//     theta (less calendar aging);
//   * theta moves in `step` increments within [theta_min, theta_max], and
//     updates ride the existing ACK piggyback like w_u.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

namespace blam {

class ThetaController {
 public:
  struct Config {
    double theta_min{0.2};
    double theta_max{0.9};
    double initial{0.5};
    double step{0.1};
    /// Raise theta when the recent loss rate exceeds this.
    double loss_raise{0.05};
    /// Lower theta when the recent loss rate is below this.
    double loss_lower{0.005};
    /// Packets per adaptation window.
    int window_packets{50};
  };

  explicit ThetaController(const Config& config);

  /// Records a delivered packet's sequence number; gaps versus the previous
  /// delivery are counted as losses. Returns a new theta for the node when
  /// an adaptation window completes and the value changed.
  std::optional<double> on_delivery(std::uint32_t node_id, std::uint32_t seq);

  /// Current theta for the node (initial until adapted).
  [[nodiscard]] double theta(std::uint32_t node_id) const;

  [[nodiscard]] const Config& config() const { return config_; }

  /// Per-node loop state for engine checkpoints, sorted by node id (the
  /// live map is unordered; sorting makes the serialization canonical).
  struct NodeSnapshot {
    std::uint32_t node_id{0};
    std::uint32_t last_seq{0};
    bool has_seq{false};
    std::uint64_t delivered{0};
    std::uint64_t lost{0};
    double theta{0.0};
  };

  [[nodiscard]] std::vector<NodeSnapshot> snapshot() const;
  void restore(const std::vector<NodeSnapshot>& nodes);

 private:
  struct NodeState {
    std::uint32_t last_seq{0};
    bool has_seq{false};
    std::uint64_t delivered{0};
    std::uint64_t lost{0};
    double theta;
  };

  // blam-ckpt: skip -- construction input; the engine rebuilds it at its defaults from theta
  Config config_;
  // blam-lint: allow(D2) -- lookup-only by node id (on_delivery/theta); never iterated
  std::unordered_map<std::uint32_t, NodeState> nodes_;
};

}  // namespace blam
