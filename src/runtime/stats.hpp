#pragma once
// Observability types for the runtime layer. Everything a throughput claim
// needs to be checkable: per-stream latency distribution summaries, frame
// counters, queue pressure, and worker utilization — snapshotted atomically
// so a monitoring thread can read while workers run.
//
// Codec-side counters are not stored here a second time: each snapshot
// carries the telemetry::Snapshot folded from the engine runs it covers and
// exposes the familiar names as accessors over the engine.* metrics.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/streaming_engine.hpp"
#include "runtime/shard_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace swc::runtime {

// Dense telemetry ids for the runtime's own behavior (queueing, parking,
// arena traffic) — the dispatch-layer counterpart to core::EngineMetricIds.
// Counters/gauges are functional output and always live; FrameServer::stats()
// folds current values into every snapshot's metrics.
struct RuntimeMetricIds {
  telemetry::MetricId parks;        // counter: worker sleeps with nothing to do
  telemetry::MetricId queue_depth;  // gauge: pending frames in the run queue
  telemetry::MetricId arena_allocs;    // counter: fresh payload allocs
  telemetry::MetricId arena_reuses;    // counter: acquires served from freelist
  telemetry::MetricId arena_recycled;  // counter: buffers retained on return
  telemetry::MetricId arena_dropped;   // counter: buffers released on return
  telemetry::MetricId arena_retained;  // gauge: bytes parked in the arena freelist

  [[nodiscard]] static const RuntimeMetricIds& get() {
    using telemetry::MetricKind;
    using telemetry::Registry;
    static const RuntimeMetricIds ids = {
        Registry::metric("runtime.parks", MetricKind::Counter, "naps"),
        Registry::metric("runtime.shard_queue_depth", MetricKind::Gauge, "frames"),
        Registry::metric("runtime.arena.allocs", MetricKind::Counter, "buffers"),
        Registry::metric("runtime.arena.reuses", MetricKind::Counter, "buffers"),
        Registry::metric("runtime.arena.recycled", MetricKind::Counter, "buffers"),
        Registry::metric("runtime.arena.dropped", MetricKind::Counter, "buffers"),
        Registry::metric("runtime.arena.retained_bytes", MetricKind::Gauge, "bytes"),
    };
    return ids;
  }
};

// Streaming latency accumulator over nanosecond samples, backed by the
// telemetry histogram primitive: min/mean/max from the summary cell plus
// p50/p95/p99 from the log-spaced buckets. Not thread-safe on its own;
// owners serialize.
struct LatencyAccumulator {
  telemetry::HistogramCell hist;

  void note(std::uint64_t ns) noexcept { hist.note(ns); }

  [[nodiscard]] std::uint64_t count() const noexcept { return hist.summary.count; }
  [[nodiscard]] double min_ms() const noexcept {
    return hist.summary.count == 0 ? 0.0 : static_cast<double>(hist.summary.min) / 1e6;
  }
  [[nodiscard]] double mean_ms() const noexcept { return hist.summary.mean() / 1e6; }
  [[nodiscard]] double max_ms() const noexcept {
    return static_cast<double>(hist.summary.max) / 1e6;
  }
  [[nodiscard]] double p50_ms() const noexcept { return hist.percentile(0.50) / 1e6; }
  [[nodiscard]] double p95_ms() const noexcept { return hist.percentile(0.95) / 1e6; }
  [[nodiscard]] double p99_ms() const noexcept { return hist.percentile(0.99) / 1e6; }

  void merge(const LatencyAccumulator& other) noexcept { hist.merge(other.hist); }
};

// Point-in-time view of one stream's counters. Frame/pixel accounting is
// runtime bookkeeping (flat fields); everything the engines measured lives
// once in `metrics` and is read back through the accessors.
struct StreamStatsSnapshot {
  std::uint32_t id = 0;
  std::string name;
  std::uint64_t frames_submitted = 0;
  std::uint64_t frames_completed = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t pixels_processed = 0;
  // engine.* metrics folded across every completed frame of this stream
  // (per-stage timers included when the tree is built with SWC_TELEMETRY=ON).
  telemetry::Snapshot metrics;
  LatencyAccumulator latency;

  [[nodiscard]] std::uint64_t windows_emitted() const {
    return metrics.sum(core::EngineMetricIds::get().windows);
  }
  // Accumulated codec traffic (compressed engine only; zero for traditional).
  [[nodiscard]] std::uint64_t payload_bits() const {
    return metrics.sum(core::EngineMetricIds::get().payload_bits);
  }
  [[nodiscard]] std::uint64_t management_bits() const {
    return metrics.sum(core::EngineMetricIds::get().management_bits);
  }
  // Worst buffer occupancy seen on any frame.
  [[nodiscard]] std::size_t max_row_bits() const {
    return static_cast<std::size_t>(metrics.max(core::EngineMetricIds::get().row_bits));
  }
  // Time inside the column codec and columns coded (codec_ns is zero when
  // the tree is built with SWC_TELEMETRY=OFF — spans compile out).
  [[nodiscard]] std::uint64_t codec_ns() const {
    return metrics.sum(core::EngineMetricIds::get().stage_encode);
  }
  [[nodiscard]] std::uint64_t codec_columns() const {
    return metrics.sum(core::EngineMetricIds::get().codec_columns);
  }
  [[nodiscard]] double codec_ns_per_column() const {
    const std::uint64_t columns = codec_columns();
    return columns == 0 ? 0.0
                        : static_cast<double>(codec_ns()) / static_cast<double>(columns);
  }
};

// Point-in-time view of the whole server.
struct RuntimeStatsSnapshot {
  std::size_t workers = 0;
  // Every frame since server start, closed streams included.
  std::uint64_t frames_submitted = 0;
  std::uint64_t frames_completed = 0;
  std::uint64_t frames_rejected = 0;
  std::size_t queue_capacity = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_high_water = 0;
  double wall_seconds = 0.0;  // since server start
  // Busy fraction per worker over that worker's own loop lifetime (see
  // DESIGN.md "Worker pool" for the metric definition).
  std::vector<double> worker_utilization;
  // Exactly one entry: the pool's queue, worker and arena view. A vector
  // only because the benchmark iterates it for the arena counters.
  std::vector<ShardStatsSnapshot> shards;
  // Open streams only: a closed stream's snapshot leaves with it.
  std::vector<StreamStatsSnapshot> streams;
  // Every completed frame's engine.* metrics since server start, closed
  // streams included, plus the runtime.* dispatch metrics.
  telemetry::Snapshot metrics;

  [[nodiscard]] double aggregate_fps() const noexcept {
    return wall_seconds > 0.0 ? static_cast<double>(frames_completed) / wall_seconds : 0.0;
  }
  [[nodiscard]] double mean_worker_utilization() const noexcept {
    if (worker_utilization.empty()) return 0.0;
    double sum = 0.0;
    for (const double u : worker_utilization) sum += u;
    return sum / static_cast<double>(worker_utilization.size());
  }
  // Always 0: the pool has one run queue and nothing to steal from. Its
  // only reason is runtime.steals_per_frame in benchmark/layers.cpp.
  [[nodiscard]] std::uint64_t total_steals() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t total_parks() const noexcept {
    std::uint64_t n = 0;
    for (const auto& s : shards) n += s.parks;
    return n;
  }
};

}  // namespace swc::runtime
