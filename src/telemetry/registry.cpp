#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"

namespace swc::telemetry {
namespace {

// Name table. Interning is mutex-guarded (cold path); the id -> info read
// side copies under the same mutex so vector growth can never be observed
// mid-rehash.
struct NameTable {
  swc::Mutex mutex;
  std::vector<MetricInfo> infos SWC_GUARDED_BY(mutex);
  std::unordered_map<std::string, MetricId> by_name SWC_GUARDED_BY(mutex);
  std::atomic<std::size_t> count{0};

  static NameTable& instance() {
    static NameTable table;
    return table;
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::Counter:
      return "counter";
    case MetricKind::Gauge:
      return "gauge";
    case MetricKind::Timer:
      return "timer";
    case MetricKind::Histogram:
      return "histogram";
  }
  return "?";
}

}  // namespace

std::uint64_t clock_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

MetricId Registry::metric(std::string_view name, MetricKind kind, std::string_view unit) {
  NameTable& table = NameTable::instance();
  swc::MutexLock lock(table.mutex);
  const std::string key(name);
  if (const auto it = table.by_name.find(key); it != table.by_name.end()) return it->second;
  const auto id = static_cast<MetricId>(table.infos.size());
  table.infos.push_back({key, kind, std::string(unit)});
  table.by_name.emplace(key, id);
  table.count.store(table.infos.size(), std::memory_order_release);
  return id;
}

MetricInfo Registry::info(MetricId id) {
  NameTable& table = NameTable::instance();
  swc::MutexLock lock(table.mutex);
  if (id >= table.infos.size()) return {"<unregistered>", MetricKind::Counter, ""};
  return table.infos[id];
}

std::size_t Registry::metric_count() {
  return NameTable::instance().count.load(std::memory_order_acquire);
}

std::uint64_t Snapshot::value(MetricId id) const noexcept {
  const MetricCell* c = find(id);
  if (c == nullptr || c->count == 0) return 0;
  return Registry::info(id).kind == MetricKind::Gauge ? c->max : c->sum;
}

void Snapshot::merge(const Snapshot& other) {
  for (MetricId id = 0; id < other.cells_.size(); ++id) {
    const MetricCell& c = other.cells_[id];
    if (c.count == 0) continue;
    cell(id).merge(c);
  }
  for (const auto& [id, h] : other.hists_) {
    if (h.count() != 0) hist_cell(id).merge(h);
  }
}

HistogramCell& Snapshot::hist_cell(MetricId id) {
  for (auto& [hid, cell] : hists_) {
    if (hid == id) return cell;
  }
  hists_.emplace_back(id, HistogramCell{});
  return hists_.back().second;
}

double HistogramCell::percentile(double q) const noexcept {
  if (summary.count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(summary.count);
  std::uint64_t cumulative = 0;
  for (std::size_t slot = 0; slot < kHistogramSlots; ++slot) {
    if (buckets[slot] == 0) continue;
    const std::uint64_t next = cumulative + buckets[slot];
    if (static_cast<double>(next) >= target) {
      const auto lower = static_cast<double>(histogram_slot_lower(slot));
      const double upper = slot + 1 < kHistogramSlots
                               ? static_cast<double>(histogram_slot_lower(slot + 1))
                               : static_cast<double>(summary.max);
      const double inside =
          (target - static_cast<double>(cumulative)) / static_cast<double>(buckets[slot]);
      double value = lower + inside * (upper - lower);
      // Clamp to the observed range: bucket bounds are coarser than the data.
      if (summary.min != std::numeric_limits<std::uint64_t>::max() &&
          value < static_cast<double>(summary.min)) {
        value = static_cast<double>(summary.min);
      }
      if (value > static_cast<double>(summary.max)) value = static_cast<double>(summary.max);
      return value;
    }
    cumulative = next;
  }
  return static_cast<double>(summary.max);
}

std::string to_json(const Snapshot& snapshot, int indent) {
  const std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent), ' ');
  std::string out = "{\n" + pad + "\"metrics\": {\n";
  bool first = true;
  for (MetricId id = 0; id < snapshot.capacity(); ++id) {
    const MetricCell* c = snapshot.find(id);
    if (c == nullptr || c->count == 0) continue;
    const MetricInfo info = Registry::info(id);
    if (!first) out += ",\n";
    first = false;
    out += pad + pad + "\"" + json_escape(info.name) + "\": {\"kind\": \"" +
           kind_name(info.kind) + "\", \"unit\": \"" + json_escape(info.unit) +
           "\", \"count\": " + std::to_string(c->count) + ", \"sum\": " + std::to_string(c->sum) +
           ", \"min\": " + std::to_string(c->min == std::numeric_limits<std::uint64_t>::max()
                                              ? 0
                                              : c->min) +
           ", \"max\": " + std::to_string(c->max);
    if (const HistogramCell* h = snapshot.histogram(id); h != nullptr && h->count() != 0) {
      out += ", \"p50\": " + std::to_string(h->percentile(0.50)) +
             ", \"p95\": " + std::to_string(h->percentile(0.95)) +
             ", \"p99\": " + std::to_string(h->percentile(0.99));
    }
    out += "}";
  }
  out += "\n" + pad + "}\n}\n";
  return out;
}

#if !defined(SWC_TELEMETRY_OFF)

namespace {

// Per-thread trace ring. Slots are atomics so a concurrent recent_spans()
// read is race-free (TSan-clean); a slot being rewritten mid-read surfaces
// as a dropped event via the begin/duration plausibility check below, never
// as UB.
constexpr std::size_t kRingSize = 256;

struct TraceRing {
  std::array<std::atomic<std::uint64_t>, kRingSize> meta{};   // metric | thread<<32 | 1<<63
  std::array<std::atomic<std::uint64_t>, kRingSize> begin{};
  std::array<std::atomic<std::uint64_t>, kRingSize> duration{};
  std::atomic<std::uint64_t> head{0};
  std::uint32_t thread_ordinal = 0;
};

struct TraceDirectory {
  swc::Mutex mutex;
  std::vector<TraceRing*> rings SWC_GUARDED_BY(mutex);
  std::uint32_t next_ordinal SWC_GUARDED_BY(mutex) = 0;

  static TraceDirectory& instance() {
    static TraceDirectory dir;
    return dir;
  }
};

struct TraceRegistration {
  TraceRing* ring;

  TraceRegistration() : ring(new TraceRing) {
    TraceDirectory& dir = TraceDirectory::instance();
    swc::MutexLock lock(dir.mutex);
    ring->thread_ordinal = dir.next_ordinal++;
    dir.rings.push_back(ring);
  }
  ~TraceRegistration() {
    TraceDirectory& dir = TraceDirectory::instance();
    swc::MutexLock lock(dir.mutex);
    std::erase(dir.rings, ring);
    delete ring;
  }
};

TraceRing& thread_ring() {
  thread_local TraceRegistration reg;
  return *reg.ring;
}

}  // namespace

namespace detail {

void trace_append(MetricId id, std::uint64_t begin_ns, std::uint64_t duration_ns) noexcept {
  TraceRing& ring = thread_ring();
  const std::uint64_t slot = ring.head.load(std::memory_order_relaxed) % kRingSize;
  const std::uint64_t meta = (std::uint64_t{1} << 63) |
                             (std::uint64_t{ring.thread_ordinal} << 32) | std::uint64_t{id};
  ring.meta[slot].store(meta, std::memory_order_relaxed);
  ring.begin[slot].store(begin_ns, std::memory_order_relaxed);
  ring.duration[slot].store(duration_ns, std::memory_order_relaxed);
  ring.head.fetch_add(1, std::memory_order_release);
}

}  // namespace detail

std::vector<SpanEvent> recent_spans() {
  TraceDirectory& dir = TraceDirectory::instance();
  std::vector<SpanEvent> events;
  swc::MutexLock lock(dir.mutex);
  for (const TraceRing* ring : dir.rings) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t first = head > kRingSize ? head - kRingSize : 0;
    for (std::uint64_t i = first; i < head; ++i) {
      const std::uint64_t slot = i % kRingSize;
      const std::uint64_t meta = ring->meta[slot].load(std::memory_order_relaxed);
      if ((meta >> 63) == 0) continue;
      SpanEvent ev;
      ev.metric = static_cast<MetricId>(meta & 0xffffffffu);
      ev.thread = static_cast<std::uint32_t>((meta >> 32) & 0x7fffffffu);
      ev.begin_ns = ring->begin[slot].load(std::memory_order_relaxed);
      ev.duration_ns = ring->duration[slot].load(std::memory_order_relaxed);
      events.push_back(ev);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const SpanEvent& a, const SpanEvent& b) { return a.begin_ns < b.begin_ns; });
  return events;
}

#endif  // !SWC_TELEMETRY_OFF

}  // namespace swc::telemetry
