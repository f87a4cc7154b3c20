// ThreadSanitizer-targeted stress: many small frames, several producer
// threads, 8 workers, a stats poller racing the workers, and striped
// submissions mixed in. No sleeps, no timing assumptions — the test is about
// data-race freedom and conservation of frame counts under load.
// CMake adds a dedicated CTest entry running this suite under TSan when the
// build is configured with -DSWC_SANITIZE=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/streaming_engine.hpp"
#include "image/synthetic.hpp"
#include "runtime/frame_server.hpp"
#include "telemetry/telemetry.hpp"

namespace swc::runtime {
namespace {

core::EngineConfig make_config(std::size_t w, std::size_t h, std::size_t n) {
  core::EngineConfig config;
  config.spec = {w, h, n};
  config.codec.threshold = 0;
  return config;
}

TEST(RuntimeStress, ManySmallFramesAcrossEightWorkers) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kFramesPerProducer = 40;
  constexpr std::size_t kStreamsPerProducer = 2;

  FrameServer server({.workers = 8, .queue_capacity = 32});
  const auto config = make_config(16, 16, 4);
  const auto frame = image::make_natural_image(16, 16, {.seed = 42});

  std::vector<std::uint32_t> stream_ids;
  for (std::size_t i = 0; i < kProducers * kStreamsPerProducer; ++i) {
    stream_ids.push_back(server.open_stream({.name = "s" + std::to_string(i),
                                             .kind = EngineKind::Compressed,
                                             .engine = config,
                                             .keep_output = false}));
  }

  std::atomic<std::uint64_t> callbacks{0};
  std::atomic<bool> stop_polling{false};
  std::thread poller([&] {
    // Snapshot stats concurrently with the workers; TSan verifies this is
    // race-free, the final assertions verify it is consistent.
    while (!stop_polling.load()) {
      const auto snap = server.stats();
      EXPECT_LE(snap.frames_completed, snap.frames_submitted);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t f = 0; f < kFramesPerProducer; ++f) {
        const auto id = stream_ids[p * kStreamsPerProducer + f % kStreamsPerProducer];
        EXPECT_TRUE(server.submit(id, frame, SubmitPolicy::Block,
                                  [&](FrameResult) { ++callbacks; }));
      }
    });
  }
  for (auto& t : producers) t.join();
  server.wait_idle();
  stop_polling = true;
  poller.join();

  const auto stats = server.stats();
  const std::uint64_t expected = kProducers * kFramesPerProducer;
  EXPECT_EQ(callbacks.load(), expected);
  EXPECT_EQ(stats.frames_submitted, expected);
  EXPECT_EQ(stats.frames_completed, expected);
  EXPECT_EQ(stats.frames_rejected, 0u);
  std::uint64_t per_stream_total = 0;
  for (const auto& s : stats.streams) per_stream_total += s.frames_completed;
  EXPECT_EQ(per_stream_total, expected);
}

TEST(RuntimeStress, ConcurrentReentrantScansWithLiveTelemetryReader) {
  // N workers drive one const engine's run_reentrant concurrently, each
  // writing stage spans into its own trace ring, while a monitor thread
  // reads every ring through telemetry::recent_spans() the whole time. TSan
  // verifies the reading is race-free; the final assertions verify the
  // runs' own snapshots lost or double-counted nothing.
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kRunsPerWorker = 8;
  constexpr std::size_t kSize = 24;
  constexpr std::size_t kWindow = 4;

  const core::CompressedEngine engine(make_config(kSize, kSize, kWindow));
  const auto frame = image::make_natural_image(kSize, kSize, {.seed = 5});
  const auto& ids = core::EngineMetricIds::get();

  std::atomic<bool> stop_monitor{false};
  std::thread monitor([&] {
    while (!stop_monitor.load()) {
      const auto events = telemetry::recent_spans();
      const std::size_t interned = telemetry::Registry::metric_count();
      for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_LT(events[i].metric, interned);
        if (i > 0) {
          EXPECT_LE(events[i - 1].begin_ns, events[i].begin_ns);  // oldest first
        }
      }
      std::this_thread::yield();
    }
  });

  std::vector<telemetry::Snapshot> per_worker(kWorkers);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t r = 0; r < kRunsPerWorker; ++r) {
        const auto result = engine.run_reentrant(
            frame, [](std::size_t, std::size_t, const core::WindowView&) {});
        EXPECT_EQ(result.reconstructed, frame);  // threshold 0 stays lossless
        per_worker[w].merge(result.stats.metrics);
      }
    });
  }
  for (auto& t : workers) t.join();
  stop_monitor = true;
  monitor.join();

  telemetry::Snapshot total;
  for (const auto& snapshot : per_worker) total.merge(snapshot);
  const std::uint64_t windows_per_run = (kSize - kWindow + 1) * (kSize - kWindow + 1);
  EXPECT_EQ(total.sum(ids.windows), kWorkers * kRunsPerWorker * windows_per_run);
  EXPECT_EQ(total.sum(ids.rows), kWorkers * kRunsPerWorker * (kSize - kWindow));
}

TEST(RuntimeStress, StripedAndStreamedFramesCoexist) {
  FrameServer server({.workers = 8, .queue_capacity = 16});
  const auto small = make_config(16, 16, 4);
  const auto big = make_config(48, 48, 8);
  const auto small_id = server.open_stream(
      {.name = "small", .kind = EngineKind::Compressed, .engine = small, .keep_output = false});
  const auto big_id =
      server.open_stream({.name = "big", .kind = EngineKind::Compressed, .engine = big});

  const auto small_frame = image::make_natural_image(16, 16, {.seed = 1});
  const auto big_frame = image::make_natural_image(48, 48, {.seed = 2});

  std::thread streamer([&] {
    for (int i = 0; i < 24; ++i) {
      EXPECT_TRUE(server.submit(small_id, small_frame, SubmitPolicy::Block));
    }
  });
  // Striped submissions from the calling thread while the streamer floods
  // the queue: caller-helping execution must stay deadlock-free.
  for (int i = 0; i < 4; ++i) {
    const auto result = server.submit_striped(big_id, big_frame, 8);
    EXPECT_EQ(result.reconstructed, big_frame);
  }
  streamer.join();
  server.wait_idle();

  const auto stats = server.stats();
  EXPECT_EQ(stats.streams[small_id].frames_completed, 24u);
  EXPECT_EQ(stats.streams[big_id].frames_completed, 4u);
}

}  // namespace
}  // namespace swc::runtime
