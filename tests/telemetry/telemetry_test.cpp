// Telemetry core: metric interning, snapshot accumulation/merge semantics
// per metric kind, scoped Span timers and their trace ring, histograms, and
// JSON export.
// Metric names here use a "test." prefix so they never collide with the
// engine/hw metric sets interned by other code in this process.

#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

namespace swc::telemetry {
namespace {

TEST(TelemetryRegistry, InternIsIdempotentAndInfoRoundTrips) {
  const MetricId a = Registry::metric("test.intern.counter", MetricKind::Counter, "items");
  const MetricId b = Registry::metric("test.intern.counter", MetricKind::Counter, "items");
  EXPECT_EQ(a, b);

  const MetricInfo info = Registry::info(a);
  EXPECT_EQ(info.name, "test.intern.counter");
  EXPECT_EQ(info.kind, MetricKind::Counter);
  EXPECT_EQ(info.unit, "items");
}

TEST(TelemetryRegistry, DistinctNamesGetDistinctIds) {
  const MetricId a = Registry::metric("test.distinct.a", MetricKind::Counter);
  const MetricId b = Registry::metric("test.distinct.b", MetricKind::Gauge);
  EXPECT_NE(a, b);
  EXPECT_LT(a, Registry::metric_count());
  EXPECT_LT(b, Registry::metric_count());
}

TEST(TelemetryRegistry, UnregisteredIdReadsAsPlaceholder) {
  EXPECT_EQ(Registry::info(kInvalidMetric).name, "<unregistered>");
}

TEST(TelemetrySnapshot, CounterGaugeTimerSemantics) {
  const MetricId counter = Registry::metric("test.snap.counter", MetricKind::Counter, "bits");
  const MetricId gauge = Registry::metric("test.snap.gauge", MetricKind::Gauge, "bits");
  const MetricId timer = Registry::metric("test.snap.timer", MetricKind::Timer, "ns");

  Snapshot snap;
  snap.add(counter, 10);
  snap.add(counter, 32);
  snap.note_max(gauge, 7);
  snap.note_max(gauge, 3);  // lower level must not reduce the high-water mark
  snap.note(timer, 100);
  snap.note(timer, 50);

  EXPECT_EQ(snap.sum(counter), 42u);
  EXPECT_EQ(snap.count(counter), 2u);
  EXPECT_EQ(snap.max(gauge), 7u);
  EXPECT_EQ(snap.sum(timer), 150u);
  const MetricCell* t = snap.find(timer);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->min, 50u);
  EXPECT_EQ(t->max, 100u);
  EXPECT_DOUBLE_EQ(t->mean(), 75.0);

  // value() is kind-aware: gauges report max, everything else the sum.
  EXPECT_EQ(snap.value(counter), 42u);
  EXPECT_EQ(snap.value(gauge), 7u);
  EXPECT_EQ(snap.value(timer), 150u);
}

TEST(TelemetrySnapshot, UntouchedMetricsReadAsZero) {
  const MetricId id = Registry::metric("test.snap.untouched", MetricKind::Counter);
  const Snapshot snap;
  EXPECT_EQ(snap.sum(id), 0u);
  EXPECT_EQ(snap.max(id), 0u);
  EXPECT_EQ(snap.count(id), 0u);
  EXPECT_EQ(snap.value(id), 0u);
  EXPECT_EQ(snap.find(id), nullptr);
}

TEST(TelemetrySnapshot, MergeIsKindAwareViaValue) {
  const MetricId counter = Registry::metric("test.merge.counter", MetricKind::Counter);
  const MetricId gauge = Registry::metric("test.merge.gauge", MetricKind::Gauge);

  Snapshot a, b;
  a.add(counter, 5);
  a.note_max(gauge, 100);
  b.add(counter, 7);
  b.note_max(gauge, 60);

  a.merge(b);
  EXPECT_EQ(a.value(counter), 12u);   // counters sum across runs
  EXPECT_EQ(a.value(gauge), 100u);    // gauges take the max, never the sum
  EXPECT_EQ(a.count(counter), 2u);

  // Merging an empty snapshot is a no-op in both directions.
  Snapshot empty;
  a.merge(empty);
  EXPECT_EQ(a.value(counter), 12u);
  empty.merge(a);
  EXPECT_EQ(empty.value(gauge), 100u);
}

TEST(TelemetrySpan, RecordsOneTimerSampleWithPlausibleDuration) {
  const MetricId stage = Registry::metric("test.span.stage", MetricKind::Timer, "ns");
  Snapshot snap;
  {
    Span span(snap, stage);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (kSpansEnabled) {
    const MetricCell* c = snap.find(stage);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->count, 1u);
    EXPECT_GE(c->sum, 1'000'000u);  // slept 2 ms; allow a sloppy clock half of it
  } else {
    // Kill switch active: the span must leave no trace at all.
    EXPECT_EQ(snap.count(stage), 0u);
  }
}

TEST(TelemetrySpan, FinishIsIdempotent) {
  const MetricId stage = Registry::metric("test.span.finish", MetricKind::Timer, "ns");
  Snapshot snap;
  Span span(snap, stage);
  span.finish();
  span.finish();
  EXPECT_EQ(snap.count(stage), kSpansEnabled ? 1u : 0u);
}

TEST(TelemetrySpan, TraceRingRetainsRecentEvents) {
  const MetricId stage = Registry::metric("test.span.trace", MetricKind::Timer, "ns");
  Snapshot snap;
  constexpr int kSpans = 5;
  for (int i = 0; i < kSpans; ++i) {
    Span span(snap, stage);
  }
  const auto events = recent_spans();
  if (!kSpansEnabled) {
    EXPECT_TRUE(events.empty());
    return;
  }
  int matched = 0;
  std::uint64_t prev_begin = 0;
  for (const SpanEvent& ev : events) {
    EXPECT_GE(ev.begin_ns, prev_begin);  // recent_spans() sorts by begin time
    prev_begin = ev.begin_ns;
    if (ev.metric == stage) ++matched;
  }
  EXPECT_EQ(matched, kSpans);
}

TEST(TelemetryJson, EmitsOnlyPopulatedMetricsWithKindAndUnit) {
  const MetricId used = Registry::metric("test.json.used", MetricKind::Gauge, "bits");
  (void)Registry::metric("test.json.unused", MetricKind::Counter);

  Snapshot snap;
  snap.note_max(used, 1234);
  const std::string json = to_json(snap);
  EXPECT_NE(json.find("\"test.json.used\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"unit\": \"bits\""), std::string::npos);
  EXPECT_NE(json.find("\"max\": 1234"), std::string::npos);
  EXPECT_EQ(json.find("test.json.unused"), std::string::npos);
}

TEST(TelemetryHistogram, SlotMappingIsMonotoneAndInvertible) {
  // Exact unit buckets below 2^kHistogramSubBits, then log-spaced.
  for (std::uint64_t v = 0; v < (1u << kHistogramSubBits); ++v) {
    EXPECT_EQ(histogram_slot(v), v);
  }
  std::size_t prev = 0;
  for (std::uint64_t v = 1; v < (std::uint64_t{1} << 40); v = v * 3 + 1) {
    const std::size_t slot = histogram_slot(v);
    EXPECT_GE(slot, prev) << "slot mapping must be monotone at v=" << v;
    EXPECT_LT(slot, kHistogramSlots);
    // The slot's lower bound is the smallest value mapping to it.
    EXPECT_LE(histogram_slot_lower(slot), v);
    EXPECT_EQ(histogram_slot(histogram_slot_lower(slot)), slot);
    prev = slot;
  }
  // Relative bucket width stays within 2^-kHistogramSubBits.
  const std::size_t slot = histogram_slot(1'000'000);
  const auto lower = histogram_slot_lower(slot);
  const auto upper = histogram_slot_lower(slot + 1);
  EXPECT_LE(static_cast<double>(upper - lower) / static_cast<double>(lower), 0.1251);
}

TEST(TelemetryHistogram, PercentilesTrackAUniformDistribution) {
  HistogramCell cell;
  for (std::uint64_t v = 1; v <= 10'000; ++v) cell.note(v);
  EXPECT_EQ(cell.count(), 10'000u);
  // ~12.5% bucket resolution: allow a generous envelope around the truth.
  EXPECT_NEAR(cell.percentile(0.50), 5'000.0, 5'000.0 * 0.15);
  EXPECT_NEAR(cell.percentile(0.95), 9'500.0, 9'500.0 * 0.15);
  EXPECT_NEAR(cell.percentile(0.99), 9'900.0, 9'900.0 * 0.15);
  // Percentiles are clamped to the observed range.
  EXPECT_GE(cell.percentile(0.0), 1.0);
  EXPECT_LE(cell.percentile(1.0), 10'000.0);
  EXPECT_EQ(HistogramCell{}.percentile(0.5), 0.0);  // empty: defined zero
}

TEST(TelemetryHistogram, MergeMatchesCombinedRecording) {
  HistogramCell a;
  HistogramCell b;
  HistogramCell combined;
  std::uint64_t rng = 12345;
  for (int i = 0; i < 4'000; ++i) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t v = (rng >> 33) % 1'000'000;
    ((i % 2 == 0) ? a : b).note(v);
    combined.note(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.summary.min, combined.summary.min);
  EXPECT_EQ(a.summary.max, combined.summary.max);
  EXPECT_EQ(a.percentile(0.95), combined.percentile(0.95));
}

TEST(TelemetryHistogram, SnapshotNoteHistFeedsSummaryAndPercentiles) {
  const MetricId lat = Registry::metric("test.hist.latency", MetricKind::Histogram, "ns");
  Snapshot snap;
  for (std::uint64_t v = 100; v <= 100'000; v += 100) snap.note_hist(lat, v);
  // The plain cell sees every sample (timer semantics)...
  EXPECT_EQ(snap.count(lat), 1'000u);
  EXPECT_EQ(snap.max(lat), 100'000u);
  // ...and the bucketed histogram supports percentile extraction.
  ASSERT_NE(snap.histogram(lat), nullptr);
  EXPECT_EQ(snap.histogram(lat)->summary.min, 100u);
  EXPECT_NEAR(snap.percentile(lat, 0.5), 50'000.0, 50'000.0 * 0.15);
  EXPECT_EQ(snap.percentile(lat, 0.5), snap.histogram(lat)->percentile(0.5));
  // Metrics without histogram samples report 0, not garbage.
  const MetricId plain = Registry::metric("test.hist.none", MetricKind::Counter);
  snap.add(plain, 5);
  EXPECT_EQ(snap.histogram(plain), nullptr);
  EXPECT_EQ(snap.percentile(plain, 0.5), 0.0);
}

TEST(TelemetryHistogram, SnapshotMergeCombinesHistograms) {
  const MetricId lat = Registry::metric("test.hist.merge", MetricKind::Histogram, "ns");
  Snapshot a;
  Snapshot b;
  for (std::uint64_t v = 1; v <= 100; ++v) a.note_hist(lat, v);
  for (std::uint64_t v = 10'001; v <= 10'100; ++v) b.note_hist(lat, v);
  a.merge(b);
  ASSERT_NE(a.histogram(lat), nullptr);
  EXPECT_EQ(a.histogram(lat)->count(), 200u);
  EXPECT_LE(a.percentile(lat, 0.25), 200.0);
  EXPECT_GE(a.percentile(lat, 0.75), 9'000.0);
}

TEST(TelemetryHistogram, JsonCarriesPercentilesForHistogramMetrics) {
  const MetricId lat = Registry::metric("test.hist.json", MetricKind::Histogram, "ns");
  Snapshot snap;
  for (std::uint64_t v = 1; v <= 1'000; ++v) snap.note_hist(lat, v);
  const std::string json = to_json(snap);
  const auto pos = json.find("test.hist.json");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_NE(json.find("\"p50\"", pos), std::string::npos);
  EXPECT_NE(json.find("\"p95\"", pos), std::string::npos);
  EXPECT_NE(json.find("\"p99\"", pos), std::string::npos);
}

}  // namespace
}  // namespace swc::telemetry
