// Scenario runner: drive any experiment from a key=value config file — no
// recompilation needed for parameter sweeps.
//
//   $ ./scenario_runner my_scenario.cfg [days]
//   $ ./scenario_runner --defaults           # print an annotated template
//
// Prints the scenario echo, the network summary, and writes per-node
// metrics to <label>_nodes.csv.
#include <cstdio>
#include <cstring>

#include "common/csv.hpp"
#include "example_args.hpp"
#include "net/experiment.hpp"
#include "net/scenario_io.hpp"

namespace {

constexpr const char* kTemplate =
    R"(# BLAM scenario template - every key is optional; these are the defaults.
policy = lorawan              # lorawan | blam | theta_only | greedy_green
theta = 1.0                   # charging cap (H-50 => policy=blam, theta=0.5)
w_b = 1.0                     # degradation-vs-utility weight
nodes = 100
gateways = 1
radius_m = 5000
seed = 42
min_period_min = 16
max_period_min = 60
forecast_window_min = 1
utility = linear              # linear | exponential | step
sf_assignment = fixed         # fixed | distance
uplink_channels = 8
adr = false
supercap_tx_buffer = 0        # >0 enables the hybrid-storage extension
insulated = true              # false enables the outdoor thermal model
chemistry = lmo               # lmo | nmc | lfp battery presets
adaptive_theta = false        # closed-loop network-manager caps
ingest_batch = 1              # gateway ledger ingest watermark (any value, same bytes)
shards = 1                    # collision-domain shards (any count, same bytes)
interference_floor_dbm = -500 # audibility cutoff, must be <= -142.5 (SF12 sensitivity);
                              # raising it toward -143 isolates cells for sharding
gateway_grid_pitch_m = 0      # >0 = city grid layout (gateways on a square grid)
cluster_radius_m = 0          # node scatter radius around the cell gateway

# Fault injection (all off by default) + graceful-degradation knobs.
fault_outage_daily_start_h = 0
fault_outage_daily_duration_h = 0   # >0 = fixed daily gateway outage
fault_outage_random_per_day = 0     # Poisson random outages, 15 min to 2 h each
fault_ack_loss_good = 0             # Gilbert-Elliott downlink ACK loss
fault_ack_loss_bad = 0              # (mean sojourns 4 h good / 10 min bad)
fault_crash_per_year = 0            # node crash + 10 min reboot (wipes estimators)
fault_drought_start_days = 0        # solar drought interval
fault_drought_duration_days = 0
fault_drought_scale = 1
fault_report_loss = 0               # per-report SoC feedback-pipe faults
fault_report_dup = 0                # (probabilities; sum must be <= 1)
fault_report_reorder = 0
fault_report_corrupt = 0
fault_report_truncate = 0
stale_feedback_k = 0                # ramp w_u toward 1 past k stale periods
ack_failure_backoff = false         # budget >>= consecutive ACK-less packets
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace blam;

  if (argc >= 2 && std::strcmp(argv[1], "--defaults") == 0) {
    std::fputs(kTemplate, stdout);
    return 0;
  }
  const example::Args args{argc, argv, "<config-file> [days] | --defaults", 2};
  if (argc < 2) args.usage();
  const double days = args.days(2, 30.0);

  try {
    const ConfigFile file = ConfigFile::load(argv[1]);
    const ScenarioConfig config = scenario_from_config(file);

    std::fputs(describe_scenario(config).c_str(), stdout);
    std::printf("running %.1f simulated days ...\n\n", days);

    const ExperimentResult r = run_scenario(config, Time::from_days(days));

    std::printf("mean PRR            %10.4f (min %.4f)\n", r.summary.mean_prr, r.summary.min_prr);
    std::printf("mean utility        %10.4f\n", r.summary.mean_utility);
    std::printf("avg RETX per packet %10.3f\n", r.summary.mean_retx);
    std::printf("TX energy           %10.2f kJ\n", r.summary.total_tx_energy.joules() / 1e3);
    std::printf("latency (delivered) %10.2f s\n", r.summary.mean_delivered_latency_s);
    std::printf("degradation mean    %10.6f (max %.6f)\n", r.summary.degradation_box.mean,
                r.summary.max_degradation);
    std::printf("events executed     %10llu\n",
                static_cast<unsigned long long>(r.events_executed));

    const std::string csv_path = config.label + "_nodes.csv";
    CsvWriter csv{csv_path,
                  {"node", "generated", "delivered", "retx", "prr", "utility", "latency_s",
                   "tx_energy_j", "degradation", "mean_soc", "majority_window"}};
    for (std::size_t i = 0; i < r.nodes.size(); ++i) {
      const NodeMetrics& m = r.nodes[i];
      csv.row({CsvWriter::cell(static_cast<std::uint64_t>(i)), CsvWriter::cell(m.generated),
               CsvWriter::cell(m.delivered), CsvWriter::cell(m.retx), CsvWriter::cell(m.prr()),
               CsvWriter::cell(m.avg_utility()), CsvWriter::cell(m.delivered_latency_s.mean()),
               CsvWriter::cell(m.tx_energy.joules()), CsvWriter::cell(m.degradation),
               CsvWriter::cell(m.mean_soc),
               CsvWriter::cell(static_cast<std::int64_t>(m.majority_window()))});
    }
    csv.flush();
    std::printf("\nper-node metrics -> %s\n", csv_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
