// FIFO staging queue that decouples SoC-report arrival from rainflow
// processing in the gateway degradation service.
//
// Arriving reports are copied into two flat vectors (record headers +
// sample payload) and drained later in arrival order — the drain order IS
// the serial order, so processing in batches of any size produces the same
// ledger as immediate per-report ingestion (the SweepRunner determinism
// trick: batch size 1 degenerates to today's synchronous path). Memory is
// recycled wholesale when the queue empties, so the steady state performs
// no per-report heap allocation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/soc_sample.hpp"

namespace blam {

class SocIngestQueue {
 public:
  struct Record {
    std::uint32_t node_id{0};
    std::uint16_t report_seq{0};
    std::uint8_t report_crc{0};
    std::uint32_t sample_offset{0};
    std::uint32_t sample_count{0};
  };

  /// Copies one report (header + samples) to the back of the queue.
  void push(std::uint32_t node_id, std::uint16_t report_seq, std::uint8_t report_crc,
            std::span<const SocSample> samples) {
    Record record;
    record.node_id = node_id;
    record.report_seq = report_seq;
    record.report_crc = report_crc;
    record.sample_offset = static_cast<std::uint32_t>(samples_.size());
    record.sample_count = static_cast<std::uint32_t>(samples.size());
    samples_.insert(samples_.end(), samples.begin(), samples.end());
    records_.push_back(record);
  }

  [[nodiscard]] bool empty() const { return head_ == records_.size(); }

  /// Reports currently queued.
  [[nodiscard]] std::size_t size() const { return records_.size() - head_; }

  [[nodiscard]] const Record& front() const { return records_[head_]; }

  [[nodiscard]] std::span<const SocSample> front_samples() const {
    const Record& r = records_[head_];
    return {samples_.data() + r.sample_offset, r.sample_count};
  }

  /// Drops the front record; when the queue runs dry both vectors are
  /// truncated in place (capacity retained — the arena survives).
  void pop_front() {
    ++head_;
    if (head_ == records_.size()) {
      records_.clear();
      samples_.clear();
      head_ = 0;
    }
  }

  /// Storage capacities: the probes for the arena surviving a drain, which
  /// nothing else observes.
  // blam-analyze: allow(N1) -- invariant probe; SocIngestQueue.WholesaleRecycleKeepsCapacity
  [[nodiscard]] std::size_t record_capacity() const { return records_.capacity(); }
  // blam-analyze: allow(N1) -- invariant probe; SocIngestQueue.WholesaleRecycleKeepsCapacity
  [[nodiscard]] std::size_t sample_capacity() const { return samples_.capacity(); }

 private:
  std::vector<Record> records_;
  // blam-ckpt: skip -- always empty at a checkpoint: DegradationService::checkpoint drains the queue first
  std::vector<SocSample> samples_;
  std::size_t head_{0};
};

}  // namespace blam
