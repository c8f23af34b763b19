// Ledger ingest throughput at fleet scale: one million synthetic nodes
// streaming piggy-backed SoC reports through the batched DegradationService
// pipeline (PR 7). Reports are generated deterministically (splitmix64 on
// node/round indices — no wall clock, no global RNG), so every run ingests
// the identical byte stream and the committed BENCH_ingest.json is a true
// throughput floor for the CI gate.
//
// Measured:
//  * headline traces/s + samples/s for the full fleet at the default batch,
//  * a batch-size sweep (1 ... 65536) over the same stream,
//  * a dirty-fraction sweep: recompute wall time when only a fraction of
//    the fleet reported since the last recompute (the residual-cache path),
//  * a bit-identity check: a faulted stream (duplicates, reorder, corrupt
//    CRCs, crash resets) fed through batch 1, batch 4096 and the legacy
//    synchronous ingest_report path must checkpoint byte-identically.
//
// Modes:
//  degradation_ingest                 full bench, writes BENCH_ingest.json
//  degradation_ingest --checkpoint P  build the faulted reference ledger at
//                                     BLAM_INGEST_BATCH (default 1) and
//                                     write its checkpoint to P (the
//                                     determinism CI leg byte-compares the
//                                     batch-1 and batch-4096 files)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/state_codec.hpp"
#include "core/degradation_service.hpp"
#include "degradation/model.hpp"

namespace {

using namespace blam;

constexpr int kSamplesPerReport = 6;
/// Simulator-level report payload: 1 node id spread over the frame header is
/// not counted; 2 (seq) + 1 (crc) + 2 length + 16 per sample (t + soc).
constexpr int kBytesPerTrace = 5 + 16 * kSamplesPerReport;
constexpr double kSampleSpacingS = 60.0;

double unit_double(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/// Deterministic report for (node, round): kSamplesPerReport SoC points with
/// per-node monotone timestamps and enough direction changes to feed the
/// rainflow machine.
void make_report(std::uint32_t node, std::uint32_t round, std::vector<SocSample>& out) {
  out.clear();
  std::uint64_t state = (static_cast<std::uint64_t>(node) << 20) ^ (round + 1);
  for (int i = 0; i < kSamplesPerReport; ++i) {
    const double t_s =
        (static_cast<double>(round) * kSamplesPerReport + i + 1) * kSampleSpacingS;
    out.push_back(SocSample{Time::from_us(static_cast<std::int64_t>(t_s * 1e6)),
                            0.05 + 0.9 * unit_double(state)});
  }
}

struct IngestRun {
  double wall_s{0.0};
  std::uint64_t reports{0};
};

/// Streams `rounds` clean in-order reports to every node at `batch`.
IngestRun run_clean_stream(DegradationService& service, std::uint32_t nodes, std::uint32_t rounds,
                           std::size_t batch) {
  service.set_ingest_batch(batch);
  std::vector<SocSample> samples;
  samples.reserve(kSamplesPerReport);
  const auto start = std::chrono::steady_clock::now();
  IngestRun run;
  for (std::uint32_t round = 0; round < rounds; ++round) {
    const auto seq = static_cast<std::uint16_t>(round + 1);
    for (std::uint32_t node = 0; node < nodes; ++node) {
      make_report(node, round, samples);
      service.enqueue_report(node, seq, report_checksum(seq, samples), samples);
      ++run.reports;
    }
  }
  service.drain_queue();
  run.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return run;
}

/// Streams a deterministic FAULTED report mix (duplicates, adjacent-round
/// reorder, corrupt CRCs, crash resets) through `sink`. The stream depends
/// only on (nodes, rounds), never on the consumer, so feeding it at
/// different batch sizes must produce bit-identical ledgers.
template <typename Sink>
void feed_faulted_stream(std::uint32_t nodes, std::uint32_t rounds, Sink&& sink) {
  std::vector<SocSample> samples;
  std::vector<SocSample> swapped;
  for (std::uint32_t round = 0; round < rounds; ++round) {
    for (std::uint32_t node = 0; node < nodes; ++node) {
      std::uint64_t state = 0x00c0ffee00ULL ^ (static_cast<std::uint64_t>(node) << 24) ^ round;
      const double fault = unit_double(state);
      auto seq = static_cast<std::uint16_t>(round + 1);
      if (fault < 0.05 && round + 1 < rounds) {
        // Reorder: deliver next round's report early; the regular delivery
        // next round then counts as a duplicate after reassembly.
        const auto early = static_cast<std::uint16_t>(round + 2);
        make_report(node, round + 1, swapped);
        sink(node, early, report_checksum(early, swapped), swapped);
      }
      make_report(node, round, samples);
      std::uint8_t crc = report_checksum(seq, samples);
      if (fault >= 0.05 && fault < 0.08) crc ^= 0xA5;  // corrupt
      if (fault >= 0.08 && fault < 0.10) {
        // Crash reset: the sequence counter jumps far outside the window.
        seq = static_cast<std::uint16_t>(seq + 200);
        crc = report_checksum(seq, samples);
      }
      sink(node, seq, crc, samples);
      if (fault >= 0.10 && fault < 0.13) {
        sink(node, seq, crc, samples);  // duplicate delivery
      }
    }
  }
}

std::string faulted_checkpoint(std::uint32_t nodes, std::uint32_t rounds, std::size_t batch,
                               bool legacy_sync) {
  DegradationService service{DegradationModel{}, 25.0};
  for (std::uint32_t node = 0; node < nodes; ++node) service.register_node(node);
  service.set_ingest_batch(batch);
  feed_faulted_stream(nodes, rounds,
                      [&service, legacy_sync](std::uint32_t node, std::uint16_t seq,
                                              std::uint8_t crc, std::span<const SocSample> s) {
                        if (legacy_sync) {
                          service.ingest_report(node, seq, crc, s);
                        } else {
                          service.enqueue_report(node, seq, crc, s);
                        }
                      });
  service.recompute(Time::from_days(static_cast<double>(rounds) + 1.0));
  std::ostringstream out;
  StateWriter writer{out};
  service.checkpoint_state(writer);
  return out.str();
}

}  // namespace

int run_program(int argc, char** argv) {
  constexpr std::uint32_t kCheckNodes = 20000;
  constexpr std::uint32_t kCheckRounds = 8;

  if (argc == 3 && std::string{argv[1]} == "--checkpoint") {
    // Determinism-leg mode: reference ledger at the env-selected batch.
    std::size_t batch = 1;
    if (const char* env = std::getenv("BLAM_INGEST_BATCH"); env != nullptr) {
      const long long parsed = std::atoll(env);
      if (parsed >= 1) batch = static_cast<std::size_t>(parsed);
    }
    const std::string text =
        faulted_checkpoint(kCheckNodes / 2, kCheckRounds, batch, /*legacy_sync=*/false);
    std::ofstream out{argv[2], std::ios::binary};
    out << text;
    out.flush();
    if (!out) {
      std::fprintf(stderr, "error: could not write %s\n", argv[2]);
      return 1;
    }
    std::printf("[checkpoint] batch %zu -> %s (%zu bytes)\n", batch, argv[2], text.size());
    return 0;
  }

  const auto nodes = static_cast<std::uint32_t>(blam::bench::scaled(1000000, 1000000));
  constexpr std::uint32_t kRounds = 4;
  blam::bench::banner("Ingest throughput - batched streaming degradation ledger",
                      "A million-node fleet's piggy-backed SoC reports must clear the gateway "
                      "ledger in seconds per dissemination period, at any batch size, "
                      "bit-identically");

  // --- bit-identity: batch 1 == batch 4096 == legacy synchronous ----------
  const std::string cp_batch1 = faulted_checkpoint(kCheckNodes, kCheckRounds, 1, false);
  const std::string cp_batch4096 = faulted_checkpoint(kCheckNodes, kCheckRounds, 4096, false);
  const std::string cp_legacy = faulted_checkpoint(kCheckNodes, kCheckRounds, 1, true);
  const bool bit_identical = cp_batch1 == cp_batch4096 && cp_batch1 == cp_legacy;
  std::printf("bit-identity (faulted stream, %u nodes): batch1 %s batch4096 %s legacy\n",
              kCheckNodes, cp_batch1 == cp_batch4096 ? "==" : "!=",
              cp_batch4096 == cp_legacy ? "==" : "!=");
  if (!bit_identical) {
    std::fprintf(stderr, "error: batch size changed the ledger contents\n");
    return 1;
  }

  // --- headline: full fleet at batch 4096 ---------------------------------
  DegradationService service{DegradationModel{}, 25.0};
  for (std::uint32_t node = 0; node < nodes; ++node) service.register_node(node);
  const IngestRun main_run = run_clean_stream(service, nodes, kRounds, 4096);
  const double traces_per_s =
      main_run.wall_s > 0.0 ? static_cast<double>(main_run.reports) / main_run.wall_s : 0.0;
  const double samples_per_s = traces_per_s * kSamplesPerReport;
  std::printf("\n%-24s %12u\n", "nodes", nodes);
  std::printf("%-24s %12llu\n", "reports ingested",
              static_cast<unsigned long long>(main_run.reports));
  std::printf("%-24s %12.2f\n", "wall seconds", main_run.wall_s);
  std::printf("%-24s %12.0f\n", "traces/sec", traces_per_s);
  std::printf("%-24s %12.0f\n", "samples/sec", samples_per_s);

  // --- batch-size sweep (ascending axis) -----------------------------------
  const std::size_t kBatches[] = {1, 16, 256, 4096, 65536};
  std::vector<double> batch_rates;
  for (const std::size_t batch : kBatches) {
    DegradationService sweep_service{DegradationModel{}, 25.0};
    for (std::uint32_t node = 0; node < nodes; ++node) sweep_service.register_node(node);
    const IngestRun run = run_clean_stream(sweep_service, nodes, /*rounds=*/2, batch);
    batch_rates.push_back(run.wall_s > 0.0 ? static_cast<double>(run.reports) / run.wall_s : 0.0);
    std::printf("batch %6zu : %12.0f traces/sec\n", batch, batch_rates.back());
  }

  // --- dirty-fraction sweep (ascending axis) -------------------------------
  // After a full recompute every residual stack is cached; then only a
  // fraction of the fleet reports, and the next recompute should pay the
  // stack walk for those rows alone.
  const double kFractions[] = {0.01, 0.1, 0.5, 1.0};
  struct DirtyPoint {
    double fraction;
    std::uint64_t clean_rows;
    double recompute_wall_s;
  };
  std::vector<DirtyPoint> dirty_points;
  double probe_day = static_cast<double>(kRounds) + 1.0;
  service.recompute(Time::from_days(probe_day));  // warm every cache
  std::vector<SocSample> samples;
  // Per-node next sequence so every dirty node takes the clean diff == 1
  // apply path (a shared counter would push the lower-fraction stragglers
  // into the reorder buffer instead of dirtying their caches).
  std::vector<std::uint16_t> next_seq(nodes, static_cast<std::uint16_t>(kRounds + 1));
  for (const double fraction : kFractions) {
    const auto dirty = static_cast<std::uint32_t>(static_cast<double>(nodes) * fraction);
    for (std::uint32_t node = 0; node < dirty; ++node) {
      const std::uint16_t seq = next_seq[node]++;
      make_report(node, static_cast<std::uint32_t>(seq) - 1, samples);
      service.enqueue_report(node, seq, report_checksum(seq, samples), samples);
    }
    service.drain_queue();
    const std::uint64_t clean_rows = service.store().clean_rows();
    probe_day += 1.0;
    const auto start = std::chrono::steady_clock::now();
    service.recompute(Time::from_days(probe_day));
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    dirty_points.push_back(DirtyPoint{fraction, clean_rows, wall});
    std::printf("dirty %5.2f : clean rows %8llu, recompute %8.3f s\n", fraction,
                static_cast<unsigned long long>(clean_rows), wall);
  }

  // --- BENCH_ingest.json ----------------------------------------------------
  const std::string json_path = bench::out_path("BENCH_ingest.json");
  std::ofstream json{json_path};
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"nodes\": %u,\n"
                "  \"rounds\": %u,\n"
                "  \"samples_per_report\": %d,\n"
                "  \"reports_ingested\": %llu,\n"
                "  \"bytes_per_trace\": %d,\n"
                "  \"wall_s\": %.3f,\n"
                "  \"traces_per_s\": %.0f,\n"
                "  \"samples_per_s\": %.0f,\n",
                nodes, kRounds, kSamplesPerReport,
                static_cast<unsigned long long>(main_run.reports), kBytesPerTrace,
                main_run.wall_s, traces_per_s, samples_per_s);
  json << buf;
  std::snprintf(buf, sizeof buf, "  \"arena_pool_elements\": %llu,\n  \"bit_identical\": true,\n",
                static_cast<unsigned long long>(service.store().arena_pool_elements()));
  json << buf;
  json << "  \"batch_sweep\": [\n";
  for (std::size_t i = 0; i < std::size(kBatches); ++i) {
    std::snprintf(buf, sizeof buf, "    {\"batch\": %zu, \"traces_per_s\": %.0f}%s\n",
                  kBatches[i], batch_rates[i], i + 1 < std::size(kBatches) ? "," : "");
    json << buf;
  }
  json << "  ],\n  \"dirty_sweep\": [\n";
  for (std::size_t i = 0; i < dirty_points.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "    {\"dirty_fraction\": %.2f, \"clean_rows\": %llu, "
                  "\"recompute_wall_s\": %.3f}%s\n",
                  dirty_points[i].fraction,
                  static_cast<unsigned long long>(dirty_points[i].clean_rows),
                  dirty_points[i].recompute_wall_s, i + 1 < dirty_points.size() ? "," : "");
    json << buf;
  }
  json << "  ]\n}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("[json] wrote %s\n", json_path.c_str());
  return 0;
}

int main(int argc, char** argv) {
  return blam::bench::guarded_main("degradation_ingest", [&] { return run_program(argc, argv); });
}
