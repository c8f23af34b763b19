// Gateway: SX1301-class receiver with 8 parallel demodulation paths, the
// interference/capture model, half-duplex downlink, and ACK transmission.
//
// Reception pipeline for each uplink (mirroring NS-3 lorawan's
// GatewayLoraPhy):
//   arrival  -> sensitivity check, free demodulator check, not-transmitting
//               check; the packet enters the interference tracker either way
//               (an unlocked packet still jams others);
//   end      -> capture/SIR evaluation against everything that overlapped,
//               and a half-duplex check against the ACK ledger;
//   success  -> report the reception to the network server. The server —
//               which may hear the same frame through several gateways —
//               picks the gateway with the strongest copy and calls
//               send_ack() on it; that gateway books the ACK into RX1 (or
//               RX2) and delivers it to the node if the downlink closes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "lora/channel_plan.hpp"
#include "lora/interference.hpp"
#include "lora/link.hpp"
#include "lora/tx_timing_cache.hpp"
#include "mac/frame.hpp"
#include "mac/gateway_mac.hpp"
#include "net/metrics.hpp"
#include "net/network_server.hpp"
#include "sim/simulator.hpp"

namespace blam {

class FaultPlan;
class Node;
class StateReader;
class StateWriter;

class Gateway {
 public:
  /// SX1301 concentrator: 8 demodulation paths shared by every channel
  /// (paper Sec. IV-A.1).
  static constexpr int kDemodPaths = 8;
  /// ACK transmit power: 27 dBm, the ERP the EU868 plan allows on its
  /// 869.4-869.65 MHz downlink sub-band.
  static constexpr double kDownlinkTxDbm = 27.0;

  struct Config {
    /// Audibility floor: arrivals below this power are dropped before they
    /// enter the interference tracker (counted as lost_under_sensitivity).
    /// The default never triggers (> 500 dB of path loss); a finite floor
    /// bounds the gateway's collision domain for the shard planner.
    double interference_floor_dbm{-500.0};
  };

  Gateway(int id, Position position, Simulator& sim, NetworkServer& server, Metrics& metrics,
          const ChannelPlan& plan, const Config& config);

  /// Attaches the fault-injection plan (nullptr = no faults). Mutable:
  /// the downlink loss channel consumes random draws.
  void attach_fault_plan(FaultPlan* faults) { faults_ = faults; }

  /// Id used to key this gateway's fault streams (Gilbert-Elliott downlink
  /// chain). Defaults to the constructor id; the sharded engine overrides it
  /// with the GLOBAL gateway id so a shard-local gateway draws from the same
  /// per-gateway chain as its serial twin.
  void set_fault_gateway_id(int id) { fault_id_ = id; }

  /// Called by a node at the instant its transmission starts.
  /// `rx_power_dbm` is the power this uplink arrives with at THIS gateway.
  void on_uplink(Node& node, const UplinkFrame& frame, const TxParams& params, int channel,
                 double rx_power_dbm);

  /// Called by the network server after it has chosen this gateway as the
  /// downlink for a decoded frame: builds the ACK (w_u, ADR), books the TX
  /// chain, and delivers to the node if the link budget closes.
  void send_ack(Node& node, const UplinkFrame& frame, Time uplink_end, SpreadingFactor sf,
                int channel, std::optional<double> theta_update = std::nullopt);

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] Position position() const { return position_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Worst-case delay from uplink end to ACK airtime end, across the RX1
  /// (slowest SF at the RX1 bandwidth) and RX2 options — nodes place their
  /// ACK-timeout after this. Constant per gateway, computed at construction
  /// (nodes query it on every confirmed attempt).
  [[nodiscard]] Time max_ack_end_delay() const { return max_ack_end_delay_; }

  /// Serializes the gateway's dynamic state — interference tracker, ACK
  /// ledger, in-flight receptions/ACKs with their pending events — into an
  /// engine checkpoint (see sim/checkpoint.hpp).
  void checkpoint_state(StateWriter& w) const;

  /// Restores state captured by checkpoint_state into a freshly built
  /// gateway whose event queue has been cleared. `node_by_id` resolves
  /// GLOBAL node ids back to this slice's Node instances.
  void restore_state(StateReader& r, const std::function<Node*(std::uint32_t)>& node_by_id);

 private:
  void finish_reception(std::uint32_t rx_slot);
  void deliver_ack(std::uint32_t ack_slot);

  /// Reception in flight between uplink end and the capture decision. Slots
  /// are pooled so the scheduled callback captures only {this, index} (the
  /// event queue's inline budget) and the frame's SoC-report vector keeps
  /// its capacity across packets — the reception path never allocates in the
  /// steady state.
  struct PendingReception {
    Node* node{nullptr};
    UplinkFrame frame;
    AirPacket packet;
    /// The finish_reception event; a stale handle marks the slot free
    /// (checkpoint liveness test).
    EventHandle finish_event{};
  };

  /// ACK in flight between the downlink decision and its airtime end.
  struct PendingAck {
    Node* node{nullptr};
    AckFrame ack;
    Time end;
    /// The deliver_ack event; stale once the slot is recycled.
    EventHandle deliver_event{};
  };

  [[nodiscard]] std::uint32_t acquire_rx_slot();
  [[nodiscard]] std::uint32_t acquire_ack_slot();

  int id_;
  int fault_id_;
  // blam-ckpt: skip -- deployment output; plan_deployment replays deterministically from the scenario seed
  Position position_;
  Simulator& sim_;
  // blam-ckpt: skip -- wiring; server state rides in its own engine-slice section
  NetworkServer& server_;
  // blam-ckpt: skip -- wiring; checkpointed metrics ride in the gateway-metrics section
  Metrics& metrics_;
  // blam-ckpt: skip -- pure function of the scenario, rebuilt at construction
  ChannelPlan plan_;
  // blam-ckpt: skip -- construction input, rebuilt from the same ScenarioConfig
  Config config_;
  // blam-ckpt: skip -- wiring; fault-plan state rides in the engine slice's faults section
  FaultPlan* faults_{nullptr};
  InterferenceTracker interference_;
  AckPlanner ack_planner_;
  int busy_paths_{0};
  std::uint64_t next_packet_id_{1};
  // blam-ckpt: skip -- derived constant, computed from the class-A delays at construction
  Time max_ack_end_delay_{};
  // blam-ckpt: skip -- memo cache; entries regenerate on demand from TxParams
  TxTimingCache timing_;
  std::vector<PendingReception> rx_pool_;
  std::vector<std::uint32_t> rx_free_;
  std::vector<PendingAck> ack_pool_;
  std::vector<std::uint32_t> ack_free_;
};

}  // namespace blam
