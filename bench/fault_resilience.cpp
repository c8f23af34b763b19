// Fault-resilience sweep: projected minimum battery lifespan of vanilla
// BLAM (H-50) versus BLAM with the graceful-degradation extensions
// (stale-feedback ramp + ACK-failure backoff) under daily gateway outages
// of increasing length.
//
// During an outage every confirmed uplink burns the full 8-transmission
// ladder into a dead gateway; the backoff collapses that to roughly one
// probe per period, and the staleness ramp pushes Algorithm 1 back toward
// the conservative high-DIF-weight regime while w_u is unrefreshable. Both
// effects cut deep battery cycling exactly when feedback is unavailable,
// which is what protects the minimum (first-EoL) lifespan.
//
// Lifespans are linear projections from a fixed-duration run:
//   years_to_eol = eol_threshold * simulated_years / max_degradation.
//
// A second, service-level section replays synthetic SoC traces through the
// ReportFaultChannel into a hardened DegradationService across a
// loss x reorder x corruption grid, measuring the w_u and min-lifespan
// error against an in-order oracle, and proves the ledger checkpoint is a
// bit-exact kill/restart point. Results land in BENCH_fault.json.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/state_codec.hpp"
#include "core/degradation_service.hpp"
#include "fault/fault_plan.hpp"
#include "fault/report_channel.hpp"

namespace {

using namespace blam;

struct SyntheticReport {
  std::uint16_t seq{0};
  std::uint8_t crc{0};
  std::vector<SocSample> samples;
};

/// Deterministic per-node SoC traces (offset sinusoids, 15-min sampling)
/// chunked into two-sample reports, exactly like a node's piggy-backed
/// feed. Dense sampling relative to the cycle period keeps the rainflow
/// extremes robust to isolated lost reports.
std::vector<std::vector<SyntheticReport>> build_report_feeds(int n_nodes, double days,
                                                             Time step) {
  std::vector<std::vector<SyntheticReport>> feeds(static_cast<std::size_t>(n_nodes));
  const auto total = static_cast<std::int64_t>(days * 24.0 * 60.0 / step.minutes());
  for (int u = 0; u < n_nodes; ++u) {
    const double period_min = 360.0 + 13.0 * u;
    const double phase = 0.37 * u;
    const double depth = 0.20 + 0.01 * u;  // deeper cycling on later nodes
    std::vector<SocSample> trace;
    trace.reserve(static_cast<std::size_t>(total) + 1);
    for (std::int64_t i = 0; i <= total; ++i) {
      const Time t = step * i;
      const double soc =
          0.55 + depth * std::sin(2.0 * 3.14159265358979323846 * t.minutes() / period_min + phase);
      trace.push_back({t, soc});
    }
    auto& reports = feeds[static_cast<std::size_t>(u)];
    for (std::size_t i = 0; i + 1 < trace.size(); i += 2) {
      SyntheticReport r;
      r.seq = static_cast<std::uint16_t>(reports.size() + 1);
      r.samples = {trace[i], trace[i + 1]};
      r.crc = report_checksum(r.seq, r.samples);
      reports.push_back(std::move(r));
    }
  }
  return feeds;
}

/// Round-robin in-order replay straight into the ledger (the oracle path).
void replay_in_order(const std::vector<std::vector<SyntheticReport>>& feeds,
                     DegradationService& service) {
  std::size_t longest = 0;
  for (const auto& f : feeds) longest = std::max(longest, f.size());
  for (std::size_t i = 0; i < longest; ++i) {
    for (std::size_t u = 0; u < feeds.size(); ++u) {
      if (i >= feeds[u].size()) continue;
      const SyntheticReport& r = feeds[u][i];
      service.ingest_report(static_cast<std::uint32_t>(u), r.seq, r.crc, r.samples);
    }
  }
}

}  // namespace

int run_program() {
  using namespace blam;
  using namespace blam::bench;

  const int nodes = scaled(100, 30);
  const double days = scaled(365.0, 60.0);
  const std::uint64_t seed = 42;
  banner("fault resilience - min lifespan under daily gateway outages",
         "staleness-aware fallback + ACK backoff beat vanilla BLAM on min lifespan "
         "once the gateway is dark >= 6 h/day");

  const auto trace = build_shared_trace(blam_scenario(nodes, 0.5, seed));
  const Time duration = Time::from_days(days);
  const double sim_years = days / 365.25;

  struct Variant {
    const char* name;
    double stale_k;
    bool backoff;
  };
  const std::vector<Variant> variants = {
      {"H-50", 0.0, false},
      {"H-50R", 3.0, true},  // resilient: staleness ramp (k=3) + backoff
  };
  const std::vector<double> outage_hours = {0.0, 6.0, 12.0};
  const std::vector<double> stale_sweep = {0.0, 1.0, 3.0, 7.0};  // secondary k sweep

  std::printf("%-7s %9s %8s %9s %9s %9s %11s %12s %12s\n", "variant", "outage_h", "PRR",
              "lost_out", "recov_s", "w_age_h", "max_degr", "min_life_y", "tx_energy_J");
  std::vector<std::vector<std::string>> rows;

  auto run_cell = [&](const char* name, double outage_h, double start_h, double stale_k,
                      bool backoff) {
    ScenarioConfig c = blam_scenario(nodes, 0.5, seed);
    c.stale_feedback_k = stale_k;
    c.ack_failure_backoff = backoff;
    if (outage_h > 0.0) {
      c.faults.outage_daily_start = Time::from_hours(start_h);
      c.faults.outage_daily_duration = Time::from_hours(outage_h);
    }
    const ExperimentResult r = run_scenario(c, duration, trace);
    const double min_life_y = r.summary.max_degradation > 0.0
                                  ? 0.2 * sim_years / r.summary.max_degradation
                                  : 0.0;
    std::printf("%-7s %9.1f %8.4f %9llu %9.0f %9.1f %11.6f %12.2f %12.2f\n", name, outage_h,
                r.summary.mean_prr, static_cast<unsigned long long>(r.summary.lost_in_outage),
                r.summary.mean_recovery_s, r.summary.mean_w_age_s / 3600.0,
                r.summary.max_degradation, min_life_y, r.summary.total_tx_energy.joules());
    rows.push_back({name, CsvWriter::cell(outage_h), CsvWriter::cell(stale_k),
                    CsvWriter::cell(backoff ? 1.0 : 0.0), CsvWriter::cell(r.summary.mean_prr),
                    CsvWriter::cell(static_cast<double>(r.summary.lost_in_outage)),
                    CsvWriter::cell(r.summary.mean_recovery_s),
                    CsvWriter::cell(r.summary.mean_w_age_s),
                    CsvWriter::cell(r.summary.max_degradation), CsvWriter::cell(min_life_y),
                    CsvWriter::cell(r.summary.total_tx_energy.joules())});
    return min_life_y;
  };

  double vanilla_6h = 0.0;
  double resilient_6h = 0.0;
  for (const Variant& v : variants) {
    for (double h : outage_hours) {
      // Midday outages (09:00 + duration) leave the nightly dissemination
      // recompute reachable, so w_u stays fresh; this block isolates the
      // ACK-failure backoff.
      const double life = run_cell(v.name, h, 9.0, v.stale_k, v.backoff);
      if (h == 6.0 && !v.backoff) vanilla_6h = life;
      if (h == 6.0 && v.backoff) resilient_6h = life;
    }
  }

  // Secondary sweep: a prolonged backhaul failure — the gateway is reachable
  // only 4 h/day and the outage covers every midnight dissemination instant,
  // so w_u is never refreshed and only the staleness ramp (age > k
  // dissemination periods => decay toward the conservative w = 1 regime)
  // restores battery-protective behaviour. Backoff held on; k = 0 disables
  // the ramp.
  std::printf("\nstaleness-k sweep, backhaul down 20 h/day across dissemination instants:\n");
  for (double k : stale_sweep) {
    char name[16];
    std::snprintf(name, sizeof name, "k=%.0f", k);
    run_cell(name, 20.0, 20.0, k, true);
  }

  write_csv("fault_resilience",
            {"variant", "outage_h", "stale_k", "backoff", "mean_prr", "lost_in_outage",
             "mean_recovery_s", "mean_w_age_s", "max_degradation", "min_lifespan_years",
             "tx_energy_j"},
            rows);

  std::printf("\nmin lifespan at 6 h/day outage: vanilla %.2f y vs resilient %.2f y (%+.1f%%)\n",
              vanilla_6h, resilient_6h, 100.0 * (resilient_6h / vanilla_6h - 1.0));
  std::printf("note: at 12 h/day vanilla's projected lifespan is inflated by collapse — its\n"
              "batteries sit drained (PRR 0.34), and a battery stored empty ages slowly;\n"
              "the resilient variant keeps both delivery and lifespan.\n");

  // ---- feedback-pipe resilience: ledger vs in-order oracle ----------------
  const int feed_nodes = 20;
  const double feed_days = scaled(180.0, 90.0);
  const Time feed_step = Time::from_minutes(15.0);
  const double feed_years = feed_days / 365.25;
  const DegradationModel feed_model{};
  const auto feeds = build_report_feeds(feed_nodes, feed_days, feed_step);
  const Time feed_end = Time::from_days(feed_days) + feed_step;

  DegradationService oracle{feed_model, 25.0};
  replay_in_order(feeds, oracle);
  oracle.recompute(feed_end);
  const double oracle_life =
      oracle.max_degradation() > 0.0 ? 0.2 * feed_years / oracle.max_degradation() : 0.0;

  std::printf("\nfeedback-pipe grid: %d nodes, %.0f days of 15-min SoC samples, "
              "oracle min lifespan %.2f y\n",
              feed_nodes, feed_days, oracle_life);
  std::printf("%6s %8s %8s %10s %10s %13s %9s %8s\n", "loss", "reorder", "corrupt", "w_err_avg",
              "w_err_max", "life_err_pct", "rejected", "bridged");

  const std::vector<double> loss_grid = {0.0, 0.1, 0.2, 0.3};
  const std::vector<double> reorder_grid = {0.0, 0.1, 0.2};
  const std::vector<double> corrupt_grid = {0.0, 0.05};
  std::vector<std::vector<std::string>> feed_rows;
  std::string cells_json;
  bool within_5pct = true;
  for (const double loss : loss_grid) {
    for (const double reorder : reorder_grid) {
      for (const double corrupt : corrupt_grid) {
        FaultPlanConfig fc;
        fc.report_loss = loss;
        fc.report_reorder = reorder;
        fc.report_corrupt = corrupt;
        FaultPlan plan{fc, Rng{seed, 0x5eb0}};
        ReportFaultChannel channel{plan};
        DegradationService service{feed_model, 25.0};
        const ReportFaultChannel::Sink sink =
            [&service](std::uint32_t node_id, std::uint16_t report_seq, std::uint8_t report_crc,
                       std::span<const SocSample> samples) {
              service.ingest_report(node_id, report_seq, report_crc, samples);
            };
        std::size_t longest = 0;
        for (const auto& f : feeds) longest = std::max(longest, f.size());
        for (std::size_t i = 0; i < longest; ++i) {
          for (std::size_t u = 0; u < feeds.size(); ++u) {
            if (i >= feeds[u].size()) continue;
            const SyntheticReport& r = feeds[u][i];
            channel.deliver(static_cast<std::uint32_t>(u), r.seq, r.crc, r.samples, sink);
          }
        }
        channel.flush(sink);
        service.recompute(feed_end);

        double w_err_sum = 0.0;
        double w_err_max = 0.0;
        for (int u = 0; u < feed_nodes; ++u) {
          const auto id = static_cast<std::uint32_t>(u);
          const double err =
              std::fabs(service.normalized_degradation(id) - oracle.normalized_degradation(id));
          w_err_sum += err;
          w_err_max = std::max(w_err_max, err);
        }
        const double w_err_avg = w_err_sum / feed_nodes;
        const double life = service.max_degradation() > 0.0
                                ? 0.2 * feed_years / service.max_degradation()
                                : 0.0;
        const double life_err_pct =
            oracle_life > 0.0 ? 100.0 * std::fabs(life / oracle_life - 1.0) : 0.0;
        const LedgerCounters& lc = service.counters();
        // A corrupted report is checksum-rejected, so it is a lost report:
        // corruption counts toward the effective loss the 5% bound covers.
        if (loss + corrupt <= 0.2 && life_err_pct > 5.0) within_5pct = false;
        std::printf("%6.2f %8.2f %8.2f %10.5f %10.5f %13.2f %9llu %8llu\n", loss, reorder,
                    corrupt, w_err_avg, w_err_max, life_err_pct,
                    static_cast<unsigned long long>(lc.reports_checksum_rejected),
                    static_cast<unsigned long long>(lc.gaps_bridged));
        feed_rows.push_back({CsvWriter::cell(loss), CsvWriter::cell(reorder),
                             CsvWriter::cell(corrupt), CsvWriter::cell(w_err_avg),
                             CsvWriter::cell(w_err_max), CsvWriter::cell(life_err_pct),
                             CsvWriter::cell(static_cast<double>(lc.reports_checksum_rejected)),
                             CsvWriter::cell(static_cast<double>(lc.gaps_bridged))});
        char cell[256];
        std::snprintf(cell, sizeof cell,
                      "%s    {\"loss\": %.2f, \"reorder\": %.2f, \"corrupt\": %.2f, "
                      "\"w_err_avg\": %.6f, \"w_err_max\": %.6f, \"life_err_pct\": %.3f}",
                      cells_json.empty() ? "" : ",\n", loss, reorder, corrupt, w_err_avg,
                      w_err_max, life_err_pct);
        cells_json += cell;
      }
    }
  }
  write_csv("fault_feedback_error",
            {"loss", "reorder", "corrupt", "w_err_avg", "w_err_max", "life_err_pct",
             "checksum_rejected", "gaps_bridged"},
            feed_rows);

  // ---- checkpoint kill/restart: bit-exact ledger recovery -----------------
  // Replay the first half with a deterministic swap pattern (every 7th pair
  // arrives out of order), cut mid-swap so every node has a report parked in
  // its reassembly buffer, checkpoint, restore into a fresh service, feed
  // both the identical second half, and demand bit-exact agreement.
  const auto order_at = [](std::size_t i) -> std::size_t {
    if (i % 7 == 3) return i + 1;
    if (i % 7 == 4) return i - 1;
    return i;
  };
  std::size_t shortest = feeds.empty() ? 0 : feeds.front().size();
  for (const auto& f : feeds) shortest = std::min(shortest, f.size());
  const std::size_t half = shortest / 2;
  const std::size_t cut = half - (half % 7) + 4;  // last delivered index was a held i+1 swap

  DegradationService survivor{feed_model, 25.0};
  const auto deliver_range = [&](DegradationService& svc, std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      for (std::size_t u = 0; u < feeds.size(); ++u) {
        const SyntheticReport& r = feeds[u][order_at(i)];
        svc.ingest_report(static_cast<std::uint32_t>(u), r.seq, r.crc, r.samples);
      }
    }
  };
  deliver_range(survivor, 0, cut);
  std::stringstream checkpoint;
  StateWriter writer{checkpoint};
  survivor.checkpoint_state(writer);
  DegradationService restarted{feed_model, 25.0};
  const std::string checkpoint_bytes = checkpoint.str();
  StateReader reader{checkpoint_bytes};
  restarted.restore_state(reader);
  deliver_range(survivor, cut, shortest - 1);
  deliver_range(restarted, cut, shortest - 1);
  survivor.recompute(feed_end);
  restarted.recompute(feed_end);
  bool checkpoint_exact = survivor.max_degradation() == restarted.max_degradation();
  for (int u = 0; u < feed_nodes; ++u) {
    const auto id = static_cast<std::uint32_t>(u);
    checkpoint_exact = checkpoint_exact &&
                       survivor.degradation(id) == restarted.degradation(id) &&
                       survivor.normalized_degradation(id) == restarted.normalized_degradation(id);
  }
  std::printf("\ncheckpoint kill/restart mid-reorder: %s\n",
              checkpoint_exact ? "bit-exact" : "MISMATCH");

  const std::string json_path = out_path("BENCH_fault.json");
  std::ofstream json{json_path};
  char head[512];
  std::snprintf(head, sizeof head,
                "{\n"
                "  \"feed_nodes\": %d,\n"
                "  \"feed_days\": %.1f,\n"
                "  \"oracle_min_lifespan_years\": %.4f,\n"
                "  \"lifespan_within_5pct_up_to_20pct_loss\": %s,\n"
                "  \"checkpoint_exact\": %s,\n"
                "  \"cells\": [\n",
                feed_nodes, feed_days, oracle_life, within_5pct ? "true" : "false",
                checkpoint_exact ? "true" : "false");
  json << head << cells_json << "\n  ]\n}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("[json] wrote %s\n", json_path.c_str());
  return within_5pct && checkpoint_exact ? 0 : 1;
}

int main() { return blam::bench::guarded_main("fault_resilience", run_program); }
