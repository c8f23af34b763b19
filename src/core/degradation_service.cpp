#include "core/degradation_service.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/checksum.hpp"
#include "common/sorted_ids.hpp"
#include "common/state_codec.hpp"

namespace blam {

namespace {

[[noreturn]] void fail_restore(const std::string& what) {
  throw std::runtime_error{"ledger checkpoint: " + what};
}

/// Reads a u64 token into the narrower column type T, naming the field when
/// the value does not fit.
template <typename T>
[[nodiscard]] T get_field(StateReader& r, const char* field) {
  const std::uint64_t value = r.get_u64();
  if (value > std::numeric_limits<T>::max()) fail_restore(std::string{field} + " out of range");
  return static_cast<T>(value);
}

}  // namespace

std::uint8_t report_checksum(std::uint16_t report_seq, std::span<const SocSample> samples) {
  // Canonical little-endian image: seq(2) then per sample t.us()(8) + the
  // SoC double's bit pattern(8). Bit patterns (not value comparisons) so a
  // single flipped mantissa bit changes the checksum.
  std::uint8_t crc = 0x00;
  const auto put = [&crc](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) crc = crc8_step(crc, static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put(report_seq, 2);
  for (const SocSample& sample : samples) {
    put(static_cast<std::uint64_t>(sample.t.us()), 8);
    put(std::bit_cast<std::uint64_t>(sample.soc), 8);
  }
  return crc;
}

DegradationService::DegradationService(const DegradationModel& model, double temperature_c)
    : store_{model, temperature_c, static_cast<std::uint32_t>(kReorderDepth) + 1} {}

NodeHandle DegradationService::obtain(std::uint32_t node_id) {
  // One search both finds a known node and positions an unknown one (this
  // runs once per delivered SoC report). Nodes register in ascending id, so
  // a registration appends.
  const auto pos = lower_bound_id(ids_.begin(), ids_.end(), node_id, std::identity{});
  const auto index = pos - ids_.begin();
  if (pos != ids_.end() && *pos == node_id) {
    return handles_by_id_[static_cast<std::size_t>(index)];
  }
  const NodeHandle h = store_.add_node();
  health_.push_back(static_cast<std::uint8_t>(LedgerHealth::kHealthy));
  has_report_.push_back(0);
  has_data_.push_back(0);
  last_seq_.push_back(0);
  suspicion_.push_back(0);
  clean_streak_.push_back(0);
  degradation_.push_back(0.0);
  normalized_.push_back(0.0);
  estimated_gap_s_.push_back(0.0);
  first_sample_t_.push_back(Time::zero());
  last_sample_t_.push_back(Time::zero());
  ids_.insert(pos, node_id);
  handles_by_id_.insert(handles_by_id_.begin() + index, h);
  return h;
}

void DegradationService::register_node(std::uint32_t node_id) { obtain(node_id); }

void DegradationService::register_nodes(std::span<const std::uint32_t> node_ids) {
  const std::size_t rows = ids_.size() + node_ids.size();
  store_.reserve(rows);
  const auto reserve_rows = [](std::size_t n, auto&... columns) { (columns.reserve(n), ...); };
  reserve_rows(rows, health_, has_report_, has_data_, last_seq_, suspicion_, clean_streak_,
               degradation_, normalized_, estimated_gap_s_, first_sample_t_, last_sample_t_, ids_,
               handles_by_id_);
  for (const std::uint32_t node_id : node_ids) obtain(node_id);
}

void DegradationService::accept_samples(NodeHandle h, std::span<const SocSample> samples) {
  for (const SocSample& s : samples) {
    if (!std::isfinite(s.soc) || s.soc < 0.0 || s.soc > 1.0) {
      ++counters_.samples_rejected_range;
      continue;
    }
    if (has_data_[h] != 0 && s.t < last_sample_t_[h]) {
      ++counters_.samples_rejected_nonmonotonic;
      continue;
    }
    store_.record(h, s.t, s.soc);
    if (has_data_[h] == 0) first_sample_t_[h] = s.t;
    last_sample_t_[h] = s.t;
    has_data_[h] = 1;
  }
}

void DegradationService::ingest(std::uint32_t node_id, std::span<const SocSample> samples) {
  drain_queue();
  accept_samples(obtain(node_id), samples);
}

void DegradationService::apply_report(NodeHandle h, std::span<const SocSample> samples,
                                      bool bridged_gap) {
  if (bridged_gap) {
    ++counters_.gaps_bridged;
    // The trapezoid inside the tracker interpolates linearly across the
    // missing reports; account the bridged span as estimated, not observed.
    if (has_data_[h] != 0 && !samples.empty() && samples.front().t > last_sample_t_[h]) {
      estimated_gap_s_[h] += (samples.front().t - last_sample_t_[h]).seconds();
    }
    if (health_[h] == static_cast<std::uint8_t>(LedgerHealth::kHealthy)) {
      health_[h] = static_cast<std::uint8_t>(LedgerHealth::kGapped);
    }
  }
  accept_samples(h, samples);
  ++counters_.reports_accepted;
}

void DegradationService::drain_held(NodeHandle h) {
  while (store_.held_count(h) > 0 &&
         store_.held_seq(h, 0) == static_cast<std::uint16_t>(last_seq_[h] + 1)) {
    last_seq_[h] = store_.held_seq(h, 0);
    apply_report(h, store_.held_samples(h, 0), /*bridged_gap=*/false);
    ++counters_.reports_reassembled;
    store_.held_remove(h, 0);
  }
}

void DegradationService::flush_held(NodeHandle h) {
  while (store_.held_count(h) > 0) {
    const std::uint16_t seq = store_.held_seq(h, 0);
    const bool gap = seq != static_cast<std::uint16_t>(last_seq_[h] + 1);
    last_seq_[h] = seq;
    apply_report(h, store_.held_samples(h, 0), gap);
    ++counters_.reports_reassembled;
    store_.held_remove(h, 0);
  }
}

void DegradationService::hold(NodeHandle h, std::uint16_t report_seq,
                              std::span<const SocSample> samples) {
  // Serial order key: forward distance from the last applied sequence.
  const auto distance = [this, h](std::uint16_t seq) {
    return static_cast<std::uint16_t>(seq - last_seq_[h]);
  };
  const std::uint32_t count = store_.held_count(h);
  std::uint32_t slot = count;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint16_t seq = store_.held_seq(h, i);
    if (seq == report_seq) {
      ++counters_.reports_duplicate;
      return;
    }
    if (distance(seq) > distance(report_seq)) {
      slot = i;
      break;
    }
  }
  store_.held_insert(h, slot, report_seq, samples);
  ++counters_.reports_buffered;
  if (store_.held_count(h) > kReorderDepth) {
    // Reassembly buffer exhausted: the missing reports are declared lost
    // and everything held is applied in serial order with bridged gaps.
    flush_held(h);
  }
}

void DegradationService::mark_clean(NodeHandle h) {
  suspicion_[h] = 0;
  ++clean_streak_[h];
  if (health_[h] == static_cast<std::uint8_t>(LedgerHealth::kQuarantined) &&
      clean_streak_[h] >= kRecoveryStreak) {
    health_[h] = static_cast<std::uint8_t>(LedgerHealth::kRecovered);
    ++counters_.recoveries;
  } else if (health_[h] == static_cast<std::uint8_t>(LedgerHealth::kGapped) &&
             store_.held_count(h) == 0) {
    health_[h] = static_cast<std::uint8_t>(LedgerHealth::kHealthy);
  }
}

void DegradationService::mark_suspect(NodeHandle h) {
  clean_streak_[h] = 0;
  ++suspicion_[h];
  if (health_[h] != static_cast<std::uint8_t>(LedgerHealth::kQuarantined) &&
      suspicion_[h] >= kQuarantineThreshold) {
    health_[h] = static_cast<std::uint8_t>(LedgerHealth::kQuarantined);
    ++counters_.quarantines;
  }
}

void DegradationService::process_report(std::uint32_t node_id, std::uint16_t report_seq,
                                        std::uint8_t report_crc,
                                        std::span<const SocSample> samples) {
  const NodeHandle h = obtain(node_id);
  if (report_crc != report_checksum(report_seq, samples)) {
    ++counters_.reports_checksum_rejected;
    mark_suspect(h);
    return;
  }
  if (has_report_[h] == 0) {
    has_report_[h] = 1;
    last_seq_[h] = report_seq;
    apply_report(h, samples, /*bridged_gap=*/false);
    mark_clean(h);
    return;
  }
  // RFC-1982-style serial arithmetic: the u16 difference reinterpreted as
  // signed classifies the report relative to the last applied sequence even
  // across counter wrap.
  const auto diff =
      static_cast<std::int16_t>(static_cast<std::uint16_t>(report_seq - last_seq_[h]));
  if (diff == 0 || (diff < 0 && diff > -kSeqWindow)) {
    ++counters_.reports_duplicate;
    return;
  }
  if (diff == 1) {
    last_seq_[h] = report_seq;
    apply_report(h, samples, /*bridged_gap=*/false);
    drain_held(h);
    mark_clean(h);
    return;
  }
  if (diff > 1 && diff <= kSeqWindow) {
    hold(h, report_seq, samples);
    return;
  }
  // Sequence far outside the window: the node's volatile report counter
  // reset (crash/reboot). Seal the rainflow residual so the SoC break does
  // not pair into a phantom cycle, drop pre-crash stragglers (no longer
  // reassemblable in the new sequence space) and resume.
  ++counters_.discontinuities;
  store_.mark_discontinuity(h);
  store_.held_clear(h);
  last_seq_[h] = report_seq;
  apply_report(h, samples, /*bridged_gap=*/false);
  mark_clean(h);
}

void DegradationService::ingest_report(std::uint32_t node_id, std::uint16_t report_seq,
                                       std::uint8_t report_crc,
                                       std::span<const SocSample> samples) {
  drain_queue();
  process_report(node_id, report_seq, report_crc, samples);
}

void DegradationService::enqueue_report(std::uint32_t node_id, std::uint16_t report_seq,
                                        std::uint8_t report_crc,
                                        std::span<const SocSample> samples) {
  queue_.push(node_id, report_seq, report_crc, samples);
  if (queue_.size() >= ingest_batch_) drain_queue();
}

std::size_t DegradationService::drain_queue() {
  std::size_t drained = 0;
  while (!queue_.empty()) {
    const SocIngestQueue::Record record = queue_.front();
    // The span aliases the queue's payload vector; process_report copies
    // anything it keeps (arena-held reassembly slots, tracker columns) and
    // never pushes, so the alias is safe until pop_front().
    process_report(record.node_id, record.report_seq, record.report_crc, queue_.front_samples());
    queue_.pop_front();
    ++drained;
  }
  return drained;
}

void DegradationService::set_ingest_batch(std::size_t batch) {
  if (batch == 0) throw std::invalid_argument{"DegradationService: ingest batch must be >= 1"};
  ingest_batch_ = batch;
}

void DegradationService::recompute(Time now) {
  // The dissemination period is the deterministic deadline for late
  // reports: whatever is still staged or buffered is applied now.
  drain_queue();
  // Canonical pass order: ascending node id via ids_ (see the member
  // comment in the header).
  max_degradation_ = 0.0;
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    const NodeHandle h = handles_by_id_[i];
    if (store_.held_count(h) > 0) flush_held(h);
    // The interpolated-segment policy for bridged gaps: the tracker's
    // trapezoid integrates calendar aging linearly across the gap and
    // rainflow pairs turning points straight over it — identical to what the
    // pre-hardening blind ingest produced for a lost report, which keeps
    // fault-free runs bit-exact. The estimated share of the trace is FLAGGED
    // (estimated_gap_s, kGapped health, gaps_bridged) rather than rescaled;
    // distrust is expressed through quarantine, not through silently
    // inflating D_u.
    degradation_[h] = store_.degradation_at(h, now);
    // Quarantined ledgers hold untrusted (or stale) estimates: they get the
    // conservative prior below and must not inflate or dilute D_max.
    if (has_data_[h] != 0 && health_[h] != static_cast<std::uint8_t>(LedgerHealth::kQuarantined)) {
      max_degradation_ = std::max(max_degradation_, degradation_[h]);
    }
  }
  // Fleet all-reduce: under the sharded engine the true D_max may live in
  // another shard's service. The combiner blocks at the epoch barrier, so
  // every shard normalizes by the same fleet-wide value.
  if (combiner_ != nullptr) {
    max_degradation_ = combiner_->combine_max_degradation(max_degradation_);
  }
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    const NodeHandle h = handles_by_id_[i];
    if (health_[h] == static_cast<std::uint8_t>(LedgerHealth::kQuarantined)) {
      normalized_[h] = 1.0;
    } else {
      normalized_[h] = max_degradation_ > 0.0 ? degradation_[h] / max_degradation_ : 0.0;
    }
    if (health_[h] == static_cast<std::uint8_t>(LedgerHealth::kRecovered)) {
      health_[h] = static_cast<std::uint8_t>(LedgerHealth::kHealthy);
    }
  }
}

NodeHandle DegradationService::handle_of(std::uint32_t node_id) const {
  const auto pos = lower_bound_id(ids_.begin(), ids_.end(), node_id, std::identity{});
  if (pos == ids_.end() || *pos != node_id) {
    throw std::out_of_range{"DegradationService: unknown node " + std::to_string(node_id)};
  }
  return handles_by_id_[static_cast<std::size_t>(pos - ids_.begin())];
}

double DegradationService::normalized_degradation(std::uint32_t node_id) const {
  return normalized_[handle_of(node_id)];
}

double DegradationService::degradation(std::uint32_t node_id) const {
  return degradation_[handle_of(node_id)];
}

LedgerHealth DegradationService::health(std::uint32_t node_id) const {
  return static_cast<LedgerHealth>(health_[handle_of(node_id)]);
}

double DegradationService::estimated_gap_seconds(std::uint32_t node_id) const {
  return estimated_gap_s_[handle_of(node_id)];
}

void write_ledger_counters(StateWriter& w, const LedgerCounters& c) {
  for (const auto count : c.fields()) w.put_u64(c.*count);
}

void read_ledger_counters(StateReader& r, LedgerCounters& c) {
  for (const auto count : c.fields()) c.*count = r.get_u64();
}

void DegradationService::checkpoint_state(StateWriter& w) {
  // Staged reports are transport state, not ledger state: fold them into
  // the ledger first. Draining here is batch-invariant (arrival order), so
  // a checkpoint taken mid-batch reads exactly like one taken after it.
  if (!queue_.empty()) drain_queue();
  w.begin_section("ledger");
  w.put_u64(ids_.size());
  w.put_double(max_degradation_);
  write_ledger_counters(w, counters_);
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    const NodeHandle h = handles_by_id_[i];
    w.put_u64(ids_[i]);
    w.put_u64(health_[h]);
    w.put_u64(has_report_[h]);
    w.put_u64(has_data_[h]);
    w.put_u64(last_seq_[h]);
    w.put_u64(suspicion_[h]);
    w.put_u64(clean_streak_[h]);
    w.put_double(degradation_[h]);
    w.put_double(normalized_[h]);
    w.put_double(estimated_gap_s_[h]);
    w.put_i64(first_sample_t_[h].us());
    w.put_i64(last_sample_t_[h].us());
    write_tracker(w, store_.snapshot(h));
    w.put_u64(store_.held_count(h));
    for (std::uint32_t slot = 0; slot < store_.held_count(h); ++slot) {
      const std::span<const SocSample> samples = store_.held_samples(h, slot);
      w.put_u64(store_.held_seq(h, slot));
      w.put_u64(samples.size());
      for (const SocSample& sample : samples) {
        w.put_i64(sample.t.us());
        w.put_double(sample.soc);
      }
    }
  }
  w.end_section();
}

void DegradationService::restore_state(StateReader& r) {
  if (!queue_.empty()) {
    throw std::logic_error{"DegradationService: drain_queue() before restore_state()"};
  }
  r.begin_section("ledger");
  const std::uint64_t n_nodes = r.get_u64();
  const double max_degradation = r.get_double();
  LedgerCounters c;
  read_ledger_counters(r, c);

  store_.reset();
  health_.clear();
  has_report_.clear();
  has_data_.clear();
  last_seq_.clear();
  suspicion_.clear();
  clean_streak_.clear();
  degradation_.clear();
  normalized_.clear();
  estimated_gap_s_.clear();
  first_sample_t_.clear();
  last_sample_t_.clear();
  ids_.clear();
  handles_by_id_.clear();
  max_degradation_ = max_degradation;
  counters_ = c;

  std::vector<SocSample> held_samples;
  for (std::uint64_t i = 0; i < n_nodes; ++i) {
    const auto id = get_field<std::uint32_t>(r, "node id");
    if (std::binary_search(ids_.begin(), ids_.end(), id)) fail_restore("duplicate node record");
    const NodeHandle h = obtain(id);
    const std::uint64_t health = r.get_u64();
    if (health > static_cast<std::uint64_t>(LedgerHealth::kRecovered)) {
      fail_restore("health out of range");
    }
    health_[h] = static_cast<std::uint8_t>(health);
    has_report_[h] = r.get_u64() != 0 ? 1 : 0;
    has_data_[h] = r.get_u64() != 0 ? 1 : 0;
    last_seq_[h] = get_field<std::uint16_t>(r, "report sequence");
    suspicion_[h] = get_field<std::uint32_t>(r, "suspicion");
    clean_streak_[h] = get_field<std::uint32_t>(r, "clean streak");
    degradation_[h] = r.get_double();
    normalized_[h] = r.get_double();
    estimated_gap_s_[h] = r.get_double();
    first_sample_t_[h] = Time::from_us(r.get_i64());
    last_sample_t_[h] = Time::from_us(r.get_i64());
    store_.restore(h, read_tracker(r));

    const std::uint64_t n_held = r.get_u64();
    if (n_held > kReorderDepth) fail_restore("held buffer overflow");
    for (std::uint32_t slot = 0; slot < n_held; ++slot) {
      const auto seq = get_field<std::uint16_t>(r, "held report sequence");
      const std::uint64_t n_samples = r.get_u64();
      held_samples.clear();
      for (std::uint64_t k = 0; k < n_samples; ++k) {
        const Time t = Time::from_us(r.get_i64());
        held_samples.push_back(SocSample{t, r.get_double()});
      }
      store_.held_insert(h, slot, seq, held_samples);
    }
  }
  if (!r.at_section_end()) fail_restore("trailing data");
  r.end_section();
}

}  // namespace blam
