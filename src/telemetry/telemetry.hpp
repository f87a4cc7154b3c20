#pragma once
// Unified per-stage instrumentation core shared by the engine, codec, hw
// pipeline, runtime, and bench layers.
//
// Model. Metrics are process-global *names* interned once into small dense
// MetricIds by the Registry (counters, max-gauges, and timers). Measured
// *values* live in Snapshot objects: plain value types indexed by MetricId
// that a run accumulates on its own stack, merges stripe-by-stripe or
// frame-by-frame, and exports as JSON. Nothing in a Snapshot is shared, so
// the hot path pays one vector index per update and no synchronization.
//
// Spans. telemetry::Span is a scoped timer that records its duration into a
// Snapshot timer metric and appends a trace event to a thread-local ring
// buffer (readable via recent_spans() for after-the-fact stage traces).
// When the tree is configured with SWC_TELEMETRY=OFF the Span constructor
// and destructor compile to nothing — no clock reads, no ring writes — so
// the engine hot path keeps its uninstrumented throughput. Counters and
// gauges stay live in both modes: bits/windows accounting is functional
// output (BRAM provisioning depends on it), not optional observability.
//
// The per-thread trace rings are single-writer atomic arrays, so a
// monitoring thread can read them while workers run — TSan-clean by
// construction.
//
// The paper connection: Tables I–V and Fig. 13 are per-stage accounting
// (bits per row, BRAMs per block, cycles per pixel). This layer is the
// software form of that method — every stage reports into one registry and
// every artifact is derived from a snapshot of it (see DESIGN.md
// "Telemetry core").

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace swc::telemetry {

using MetricId = std::uint32_t;
inline constexpr MetricId kInvalidMetric = std::numeric_limits<MetricId>::max();

#if defined(SWC_TELEMETRY_OFF)
inline constexpr bool kSpansEnabled = false;
#else
inline constexpr bool kSpansEnabled = true;
#endif

enum class MetricKind : std::uint8_t {
  Counter,    // monotonic event/quantity accumulator (sum is the value)
  Gauge,      // high-water mark (max is the value)
  Timer,      // duration distribution: count / sum / min / max nanoseconds
  Histogram,  // Timer plus fixed log-spaced buckets for percentile extraction
};

struct MetricInfo {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::string unit;  // "ns", "bits", "frames", ... (JSON annotation only)
};

// One metric's accumulated state. POD so snapshots copy and merge cheaply.
struct MetricCell {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max = 0;

  [[nodiscard]] bool empty() const noexcept { return count == 0 && sum == 0 && max == 0; }
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
  void merge(const MetricCell& other) noexcept {
    count += other.count;
    sum += other.sum;
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
  }
};

// ---------------------------------------------------------------------------
// Fixed-bucket latency histogram. Buckets are HDR-style: values below
// 2^kHistogramSubBits land in exact unit buckets, larger values share one
// bucket per (octave, top-kHistogramSubBits-mantissa-bits) pair, so relative
// resolution is bounded by 2^-kHistogramSubBits (~12.5%) across the whole
// uint64 range while the bucket array stays a fixed ~4 KB. That bound is the
// percentile error: p50/p95/p99 extraction interpolates inside one bucket.

inline constexpr unsigned kHistogramSubBits = 3;  // 8 sub-buckets per octave
inline constexpr std::size_t kHistogramSlots =
    ((64 - kHistogramSubBits) << kHistogramSubBits) + (1u << kHistogramSubBits);

// Bucket index for a sample; monotonic in v.
[[nodiscard]] constexpr std::size_t histogram_slot(std::uint64_t v) noexcept {
  constexpr std::uint64_t sub = std::uint64_t{1} << kHistogramSubBits;
  if (v < sub) return static_cast<std::size_t>(v);
  const unsigned octave = 63u - static_cast<unsigned>(std::countl_zero(v));
  const unsigned shift = octave - kHistogramSubBits;
  const auto mantissa = static_cast<std::size_t>((v >> shift) & (sub - 1));
  return ((static_cast<std::size_t>(octave) - kHistogramSubBits + 1) << kHistogramSubBits) +
         mantissa;
}

// Smallest sample value mapping to `slot` (inverse of histogram_slot).
[[nodiscard]] constexpr std::uint64_t histogram_slot_lower(std::size_t slot) noexcept {
  constexpr std::size_t sub = std::size_t{1} << kHistogramSubBits;
  if (slot < sub) return slot;
  const std::size_t octave = (slot >> kHistogramSubBits) + kHistogramSubBits - 1;
  const std::uint64_t base = std::uint64_t{1} << octave;
  const std::uint64_t step = base >> kHistogramSubBits;
  return base + static_cast<std::uint64_t>(slot & (sub - 1)) * step;
}

// One histogram's accumulated state: the usual summary cell plus the bucket
// counts. POD-ish so snapshots copy and merge with memcpy-grade cost.
struct HistogramCell {
  MetricCell summary;
  std::array<std::uint64_t, kHistogramSlots> buckets{};

  void note(std::uint64_t v) noexcept {
    ++summary.count;
    summary.sum += v;
    if (v < summary.min) summary.min = v;
    if (v > summary.max) summary.max = v;
    ++buckets[histogram_slot(v)];
  }

  void merge(const HistogramCell& other) noexcept {
    summary.merge(other.summary);
    for (std::size_t i = 0; i < kHistogramSlots; ++i) buckets[i] += other.buckets[i];
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return summary.count; }

  // Value at quantile q in [0, 1], linearly interpolated inside the bucket
  // holding the target rank and clamped to the observed [min, max]. Returns
  // 0 for an empty histogram.
  [[nodiscard]] double percentile(double q) const noexcept;
};

// Value-type metric store indexed by MetricId. Grows on demand; never
// shared between threads (merge into one from many for cross-thread folds).
class Snapshot {
 public:
  // Counter: one event carrying `delta` units.
  void add(MetricId id, std::uint64_t delta) noexcept {
    MetricCell& c = cell(id);
    ++c.count;
    c.sum += delta;
  }
  // Gauge: record a level; max is the reported value (value() consults the
  // registry kind, so gauges merge correctly — max of maxes, not a sum).
  void note_max(MetricId id, std::uint64_t level) noexcept {
    MetricCell& c = cell(id);
    ++c.count;
    if (level > c.max) c.max = level;
    if (level < c.min) c.min = level;
  }
  // Timer/distribution sample.
  void note(MetricId id, std::uint64_t value) noexcept {
    MetricCell& c = cell(id);
    ++c.count;
    c.sum += value;
    if (value < c.min) c.min = value;
    if (value > c.max) c.max = value;
  }
  // Histogram sample: records into the plain cell (so sum/min/max/value()
  // behave exactly like a timer) and into the bucketed histogram for
  // percentile extraction.
  void note_hist(MetricId id, std::uint64_t value) {
    note(id, value);
    hist_cell(id).note(value);
  }

  [[nodiscard]] const MetricCell* find(MetricId id) const noexcept {
    return id < cells_.size() ? &cells_[id] : nullptr;
  }
  // Counter sum / gauge max / timer total, zero when never touched. Looks
  // the metric kind up in the registry; for hot accessors prefer sum()/max().
  [[nodiscard]] std::uint64_t value(MetricId id) const noexcept;
  [[nodiscard]] std::uint64_t count(MetricId id) const noexcept {
    const MetricCell* c = find(id);
    return c == nullptr ? 0 : c->count;
  }
  [[nodiscard]] std::uint64_t sum(MetricId id) const noexcept {
    const MetricCell* c = find(id);
    return c == nullptr ? 0 : c->sum;
  }
  [[nodiscard]] std::uint64_t max(MetricId id) const noexcept {
    const MetricCell* c = find(id);
    return c == nullptr || c->count == 0 ? 0 : c->max;
  }

  // Bucketed histogram for a metric recorded via note_hist; nullptr when the
  // metric never saw a histogram sample in this snapshot.
  [[nodiscard]] const HistogramCell* histogram(MetricId id) const noexcept {
    for (const auto& [hid, cell] : hists_) {
      if (hid == id) return &cell;
    }
    return nullptr;
  }
  // Quantile of a histogram metric (0 when absent/empty). q in [0, 1].
  [[nodiscard]] double percentile(MetricId id, double q) const noexcept {
    const HistogramCell* h = histogram(id);
    return h == nullptr ? 0.0 : h->percentile(q);
  }

  void merge(const Snapshot& other);
  void clear() noexcept {
    cells_.clear();
    hists_.clear();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return cells_.size(); }

 private:
  MetricCell& cell(MetricId id) {
    if (id >= cells_.size()) cells_.resize(id + 1);
    return cells_[id];
  }
  HistogramCell& hist_cell(MetricId id);

  std::vector<MetricCell> cells_;
  // Sparse: histograms are few (latency metrics) but large (~4 KB each), so
  // they live beside the dense cell vector keyed explicitly.
  std::vector<std::pair<MetricId, HistogramCell>> hists_;
};

// One trace event from a Span, as read back out of the per-thread rings.
struct SpanEvent {
  MetricId metric = kInvalidMetric;
  std::uint32_t thread = 0;   // small per-process thread ordinal
  std::uint64_t begin_ns = 0; // steady-clock epoch
  std::uint64_t duration_ns = 0;
};

// Process-global metric name table.
class Registry {
 public:
  // Interns (or finds) a metric; idempotent, thread-safe, cold-path.
  static MetricId metric(std::string_view name, MetricKind kind, std::string_view unit = "");
  // Name/kind/unit for an interned id (copies; safe against later interns).
  [[nodiscard]] static MetricInfo info(MetricId id);
  [[nodiscard]] static std::size_t metric_count();
};

// Monotonic nanosecond clock shared by every span/latency measurement.
[[nodiscard]] std::uint64_t clock_ns() noexcept;

namespace detail {
void trace_append(MetricId id, std::uint64_t begin_ns, std::uint64_t duration_ns) noexcept;
}  // namespace detail

#if defined(SWC_TELEMETRY_OFF)

// Kill switch active: spans vanish entirely (no clock reads, no stores).
class Span {
 public:
  Span(Snapshot& /*snapshot*/, MetricId /*id*/) noexcept {}
  void finish() noexcept {}
};

[[nodiscard]] inline std::vector<SpanEvent> recent_spans() { return {}; }

#else

// Scoped stage timer: duration lands in `snapshot` under the timer metric
// and in the calling thread's trace ring. finish() ends the span early
// (idempotent); destruction finishes it if still open.
class Span {
 public:
  Span(Snapshot& snapshot, MetricId id) noexcept
      : snapshot_(&snapshot), id_(id), begin_ns_(clock_ns()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

  void finish() noexcept {
    if (snapshot_ == nullptr) return;
    const std::uint64_t duration = clock_ns() - begin_ns_;
    snapshot_->note(id_, duration);
    detail::trace_append(id_, begin_ns_, duration);
    snapshot_ = nullptr;
  }

 private:
  Snapshot* snapshot_;
  MetricId id_;
  std::uint64_t begin_ns_;
};

// Most recent span events across all threads (bounded per-thread rings),
// oldest first. Concurrent spans keep running; a rare in-flight overwrite
// yields a dropped (never torn-and-misattributed beyond its fields) event.
[[nodiscard]] std::vector<SpanEvent> recent_spans();

#endif  // SWC_TELEMETRY_OFF

// JSON object for a snapshot: {"metrics": {name: {kind, unit, count, sum,
// min, max}, ...}}. Only metrics with recorded data are emitted; histogram
// metrics additionally carry "p50"/"p95"/"p99" extracted from their buckets.
[[nodiscard]] std::string to_json(const Snapshot& snapshot, int indent = 2);

}  // namespace swc::telemetry
