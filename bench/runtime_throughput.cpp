// Multi-stream runtime throughput: aggregate frames/sec and MPixels/sec of
// the FrameServer across a worker sweep ({1,2,4,8} plus the machine's full
// core count), for both engine kinds, on a synthetic multi-stream workload.
// Frames are sourced from the pool's arena (acquire_frame), so the steady
// state exercises the recycle loop the server runs in production. Alongside
// the sweep: the stripe-parallel latency of a single large frame.
//
// The scaling verdict is gated to min(workers, hardware cores): a sweep
// point that oversubscribes the machine cannot be expected to scale, so it
// is reported but never judged. Results are printed as a table and written
// as the standardized BENCH_runtime.json artifact so the scaling claim is
// machine-checkable (gated by bench/check_regression.py).
//
// SWC_BENCH_FRAMES scales the per-stream frame count (default 3).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_common.hpp"
#include "image/synthetic.hpp"
#include "runtime/frame_server.hpp"
#include "runtime/stripe.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct MeasuredPoint {
  std::string engine;
  std::size_t workers = 0;
  double seconds = 0.0;
  double fps = 0.0;
  double mpixels_per_sec = 0.0;
  double mean_latency_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double utilization = 0.0;
};

struct StripePoint {
  std::size_t stripes = 0;
  double ms_per_frame = 0.0;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Worker counts worth sweeping: the canonical {1,2,4,8} plus the machine's
// actual concurrency, deduplicated and sorted.
std::vector<std::size_t> sweep_workers() {
  std::vector<std::size_t> counts = {1, 2, 4, 8};
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  counts.push_back(hw);
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

// Fill an arena-acquired frame with the template's pixels and submit it.
void submit_arena_frame(swc::runtime::FrameServer& server, std::uint32_t id,
                        const swc::image::ImageU8& content) {
  auto payload = server.acquire_frame(id);
  std::copy(content.pixels().begin(), content.pixels().end(), payload.pixels().begin());
  (void)server.submit(id, std::move(payload), swc::runtime::SubmitPolicy::Block);
}

}  // namespace

int main() {
  using namespace swc;
  benchx::print_header("Multi-stream runtime throughput",
                       "FrameServer aggregate rate vs worker count; stripe-parallel latency");

  constexpr std::size_t kStreams = 8;
  constexpr std::size_t kSize = 256;
  constexpr std::size_t kWindow = 8;
  std::size_t frames_per_stream = 3;
  if (const char* env = std::getenv("SWC_BENCH_FRAMES")) {
    frames_per_stream = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
    if (frames_per_stream == 0) frames_per_stream = 3;
  }
  const std::size_t hw_cores = std::max<std::size_t>(1, std::thread::hardware_concurrency());

  core::EngineConfig config;
  config.spec = {kSize, kSize, kWindow};
  config.codec.threshold = 0;

  // One deterministic frame per stream, generated once up front so frame
  // synthesis never pollutes the timed region.
  std::vector<image::ImageU8> frames;
  frames.reserve(kStreams);
  for (std::size_t i = 0; i < kStreams; ++i) {
    frames.push_back(image::make_natural_image(kSize, kSize, {.seed = 1000 + i}));
  }

  const auto worker_counts = sweep_workers();
  const std::size_t total_frames = kStreams * frames_per_stream;
  const double total_mpixels = static_cast<double>(total_frames * kSize * kSize) / 1e6;

  std::vector<MeasuredPoint> points;
  // Aggregate per-stage telemetry from the widest compressed run; folded
  // into BENCH_runtime.json so the artifact carries the stage breakdown next
  // to the throughput numbers.
  telemetry::Snapshot stage_metrics;
  const std::size_t widest = worker_counts.back();
  for (const char* engine_name : {"traditional", "compressed"}) {
    const bool compressed = std::string(engine_name) == "compressed";
    std::printf("engine=%s  streams=%zu  frames/stream=%zu  %zux%zu  window=%zu\n", engine_name,
                kStreams, frames_per_stream, kSize, kSize, kWindow);
    std::printf("  %-8s %10s %12s %14s %16s %12s\n", "workers", "sec", "frames/s", "MPixels/s",
                "mean lat (ms)", "util");
    double base_fps = 0.0;
    for (const std::size_t workers : worker_counts) {
      runtime::FrameServer server({.workers = workers, .queue_capacity = 2 * total_frames});
      std::vector<std::uint32_t> ids;
      for (std::size_t i = 0; i < kStreams; ++i) {
        ids.push_back(server.open_stream(
            {.name = "s" + std::to_string(i),
             .kind = compressed ? runtime::EngineKind::Compressed
                                : runtime::EngineKind::Traditional,
             .engine = config,
             .keep_output = false}));
      }
      // Warm the arenas outside the timed region: first touch allocates,
      // every later acquire recycles.
      for (std::size_t i = 0; i < kStreams; ++i) {
        submit_arena_frame(server, ids[i], frames[i]);
      }
      server.wait_idle();

      const auto t0 = Clock::now();
      for (std::size_t f = 0; f < frames_per_stream; ++f) {
        for (std::size_t i = 0; i < kStreams; ++i) {
          submit_arena_frame(server, ids[i], frames[i]);
        }
      }
      server.wait_idle();
      const double sec = seconds_since(t0);
      const auto stats = server.stats();
      if (compressed && workers == widest) stage_metrics = stats.metrics;

      double mean_lat = 0.0;
      runtime::LatencyAccumulator pool_latency;  // tail across every stream
      for (const auto& s : stats.streams) {
        mean_lat += s.latency.mean_ms();
        pool_latency.merge(s.latency);
      }
      mean_lat /= static_cast<double>(stats.streams.size());

      MeasuredPoint p;
      p.engine = engine_name;
      p.workers = workers;
      p.seconds = sec;
      p.fps = static_cast<double>(total_frames) / sec;
      p.mpixels_per_sec = total_mpixels / sec;
      p.mean_latency_ms = mean_lat;
      p.p50_ms = pool_latency.p50_ms();
      p.p95_ms = pool_latency.p95_ms();
      p.p99_ms = pool_latency.p99_ms();
      p.utilization = stats.mean_worker_utilization();
      points.push_back(p);
      if (workers == 1) base_fps = p.fps;

      std::printf("  %-8zu %10.3f %12.1f %14.2f %16.2f %11.0f%%   (%.2fx vs 1)\n", workers, sec,
                  p.fps, p.mpixels_per_sec, mean_lat, 100.0 * p.utilization,
                  base_fps > 0.0 ? p.fps / base_fps : 1.0);
    }
    std::printf("\n");
  }

  // Scaling verdict, gated to the points the machine can actually parallelize:
  // oversubscribed sweep points (workers > hardware cores) are reported above
  // but never judged.
  bool verdict_ok = true;
  {
    double last = 0.0;
    std::size_t judged = 0;
    for (const auto& p : points) {
      if (p.engine != "traditional" || p.workers > hw_cores) continue;
      // 10% tolerance: the claim is "more cores, more throughput", not that
      // two adjacent sweep points never swap within run-to-run noise.
      if (p.workers > 1 && p.mpixels_per_sec < 0.9 * last) {
        std::printf("VERDICT: traditional throughput not monotonic at %zu workers "
                    "(%.2f < %.2f MPixels/s)\n",
                    p.workers, p.mpixels_per_sec, last);
        verdict_ok = false;
      }
      last = p.mpixels_per_sec;
      ++judged;
    }
    std::printf("scaling verdict: %s (judged %zu/%zu traditional points; %zu hardware cores)\n",
                verdict_ok ? "PASS" : "FAIL", judged,
                static_cast<std::size_t>(std::count_if(
                    points.begin(), points.end(),
                    [](const MeasuredPoint& p) { return p.engine == "traditional"; })),
                hw_cores);
  }

  // Stripe-parallel latency of one large frame on an 8-worker pool.
  constexpr std::size_t kBigSize = 512;
  core::EngineConfig big = config;
  big.spec = {kBigSize, kBigSize, kWindow};
  const auto big_frame = image::make_natural_image(kBigSize, kBigSize, {.seed = 9});
  std::printf("\nstripe-parallel single frame  %zux%zu  window=%zu  (8-worker pool)\n", kBigSize,
              kBigSize, kWindow);
  std::printf("  %-8s %14s\n", "stripes", "ms/frame");
  std::vector<StripePoint> stripe_points;
  {
    runtime::ShardPool pool({.workers = 8, .queue_capacity = 16});
    for (const std::size_t stripes : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                      std::size_t{8}}) {
      const auto t0 = Clock::now();
      const auto result = runtime::run_compressed_striped(big, big_frame, stripes, &pool);
      const double ms = 1e3 * seconds_since(t0);
      if (result.reconstructed == big_frame) {
        stripe_points.push_back({stripes, ms});
        std::printf("  %-8zu %14.2f\n", stripes, ms);
      } else {
        std::printf("  %-8zu %14s\n", stripes, "MISMATCH");
      }
    }
  }

  // Standardized JSON artifact for machine consumption.
  std::vector<benchx::BenchRecord> records;
  const std::string base_cfg = "streams=" + std::to_string(kStreams) +
                               " frames_per_stream=" + std::to_string(frames_per_stream) +
                               " size=" + std::to_string(kSize) +
                               " window=" + std::to_string(kWindow);
  for (const auto& p : points) {
    const std::string cfg =
        base_cfg + " engine=" + p.engine + " workers=" + std::to_string(p.workers);
    records.push_back({"frame_server", cfg, "frames_per_sec", p.fps, "frames/s"});
    records.push_back({"frame_server", cfg, "throughput", p.mpixels_per_sec, "MPixels/s"});
    records.push_back({"frame_server", cfg, "mean_latency", p.mean_latency_ms, "ms"});
    records.push_back({"frame_server", cfg, "latency_p50", p.p50_ms, "ms"});
    records.push_back({"frame_server", cfg, "latency_p95", p.p95_ms, "ms"});
    records.push_back({"frame_server", cfg, "latency_p99", p.p99_ms, "ms"});
    records.push_back({"frame_server", cfg, "worker_utilization", p.utilization, "fraction"});
  }
  for (const auto& sp : stripe_points) {
    records.push_back({"stripe_single_frame",
                       "size=" + std::to_string(kBigSize) + " window=" + std::to_string(kWindow) +
                           " stripes=" + std::to_string(sp.stripes),
                       "frame_latency", sp.ms_per_frame, "ms"});
  }
  benchx::append_snapshot_records(records, stage_metrics, "frame_server_stages",
                                  base_cfg + " engine=compressed workers=" +
                                      std::to_string(widest));
  benchx::write_bench_json("BENCH_runtime.json", "runtime_throughput", records);
  return verdict_ok ? 0 : 1;
}
