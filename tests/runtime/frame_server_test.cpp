// FrameServer behavior: multi-stream dispatch correctness, per-stream stats,
// backpressure accounting, striped submission, and input validation.

#include "runtime/frame_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/streaming_engine.hpp"
#include "image/synthetic.hpp"

namespace swc::runtime {
namespace {

core::EngineConfig make_config(std::size_t w, std::size_t h, std::size_t n, int threshold = 0) {
  core::EngineConfig config;
  config.spec = {w, h, n};
  config.codec.threshold = threshold;
  return config;
}

TEST(FrameServer, CompressedStreamReproducesSingleThreadedOutput) {
  FrameServer server({.workers = 3, .queue_capacity = 16});
  const auto config = make_config(32, 24, 4);
  const auto id = server.open_stream({.name = "cam0", .kind = EngineKind::Compressed,
                                      .engine = config});

  const auto frame = image::make_natural_image(32, 24, {.seed = 5});
  const auto expected = core::roundtrip_image(frame, config);

  std::mutex results_mutex;
  std::vector<FrameResult> results;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(server.submit(id, frame, SubmitPolicy::Block, [&](FrameResult r) {
      std::lock_guard lock(results_mutex);
      results.push_back(std::move(r));
    }));
  }
  server.wait_idle();

  ASSERT_EQ(results.size(), 6u);
  for (const auto& r : results) {
    EXPECT_EQ(r.stream_id, id);
    EXPECT_EQ(r.reconstructed, expected);
    EXPECT_EQ(r.reconstructed, frame);  // threshold 0: lossless
    EXPECT_GT(r.latency_ns, 0u);
    EXPECT_EQ(r.stats.windows_emitted(), (32u - 4 + 1) * (24u - 4 + 1));
  }

  const auto stats = server.stats();
  EXPECT_EQ(stats.frames_submitted, 6u);
  EXPECT_EQ(stats.frames_completed, 6u);
  EXPECT_EQ(stats.frames_rejected, 0u);
  ASSERT_EQ(stats.streams.size(), 1u);
  EXPECT_EQ(stats.streams[0].frames_completed, 6u);
  EXPECT_EQ(stats.streams[0].pixels_processed, 6u * 32 * 24);
  EXPECT_GT(stats.streams[0].payload_bits(), 0u);
  EXPECT_GT(stats.streams[0].latency.mean_ms(), 0.0);
  EXPECT_LE(stats.streams[0].latency.min_ms(), stats.streams[0].latency.max_ms());
}

TEST(FrameServer, StreamsAreIndependent) {
  FrameServer server({.workers = 4, .queue_capacity = 32});
  const auto small = make_config(16, 16, 4);
  const auto large = make_config(32, 32, 8, /*threshold=*/2);
  const auto a = server.open_stream({.name = "a", .kind = EngineKind::Compressed, .engine = small});
  const auto b = server.open_stream({.name = "b", .kind = EngineKind::Compressed, .engine = large});
  const auto t =
      server.open_stream({.name = "t", .kind = EngineKind::Traditional, .engine = small});

  const auto frame_a = image::make_natural_image(16, 16, {.seed = 1});
  const auto frame_b = image::make_natural_image(32, 32, {.seed = 2});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server.submit(a, frame_a));
    ASSERT_TRUE(server.submit(b, frame_b));
    ASSERT_TRUE(server.submit(t, frame_a));
  }
  server.wait_idle();

  const auto stats = server.stats();
  ASSERT_EQ(stats.streams.size(), 3u);
  EXPECT_EQ(stats.frames_completed, 12u);
  EXPECT_EQ(stats.streams[a].frames_completed, 4u);
  EXPECT_EQ(stats.streams[b].frames_completed, 4u);
  EXPECT_EQ(stats.streams[t].frames_completed, 4u);
  // Traditional streams count windows but carry no codec traffic.
  EXPECT_GT(stats.streams[t].windows_emitted(), 0u);
  EXPECT_EQ(stats.streams[t].payload_bits(), 0u);
  EXPECT_GT(stats.streams[b].payload_bits(), 0u);
}

TEST(FrameServer, TraditionalResultHasNoReconstructedImage) {
  FrameServer server({.workers = 1, .queue_capacity = 4});
  const auto config = make_config(16, 16, 4);
  const auto id =
      server.open_stream({.name = "trad", .kind = EngineKind::Traditional, .engine = config});
  std::promise<FrameResult> promise;
  auto future = promise.get_future();
  ASSERT_TRUE(server.submit(id, image::make_gradient_image(16, 16), SubmitPolicy::Block,
                            [&](FrameResult r) { promise.set_value(std::move(r)); }));
  const auto result = future.get();
  EXPECT_TRUE(result.reconstructed.empty());
  EXPECT_EQ(result.stats.windows_emitted(), (16u - 4 + 1) * (16u - 4 + 1));
}

TEST(FrameServer, KeepOutputFalseDropsReconstructedFrames) {
  FrameServer server({.workers = 1, .queue_capacity = 4});
  const auto config = make_config(16, 16, 4);
  const auto id = server.open_stream({.name = "drop", .kind = EngineKind::Compressed,
                                      .engine = config, .keep_output = false});
  std::promise<FrameResult> promise;
  auto future = promise.get_future();
  ASSERT_TRUE(server.submit(id, image::make_gradient_image(16, 16), SubmitPolicy::Block,
                            [&](FrameResult r) { promise.set_value(std::move(r)); }));
  const auto result = future.get();
  EXPECT_TRUE(result.reconstructed.empty());
  EXPECT_GT(result.stats.windows_emitted(), 0u);
}

TEST(FrameServer, RejectPolicyCountsDropsPerStream) {
  // One worker parked behind a gating callback, queue of capacity 1 filled:
  // the next Reject submission must fail and be charged to the stream.
  FrameServer server({.workers = 1, .queue_capacity = 1});
  const auto config = make_config(16, 16, 4);
  const auto id = server.open_stream({.name = "gated", .kind = EngineKind::Compressed,
                                      .engine = config, .keep_output = false});
  const auto frame = image::make_gradient_image(16, 16);

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<bool> first_running{false};
  ASSERT_TRUE(server.submit(id, frame, SubmitPolicy::Block, [&, opened](FrameResult) {
    first_running = true;
    opened.wait();
  }));
  while (!first_running) std::this_thread::yield();

  ASSERT_TRUE(server.submit(id, frame, SubmitPolicy::Reject));   // fills the queue
  EXPECT_FALSE(server.submit(id, frame, SubmitPolicy::Reject));  // must drop
  gate.set_value();
  server.wait_idle();

  const auto stats = server.stats();
  EXPECT_EQ(stats.streams[id].frames_rejected, 1u);
  EXPECT_EQ(stats.streams[id].frames_completed, 2u);
  EXPECT_EQ(stats.frames_submitted, 2u);
  EXPECT_GE(stats.queue_high_water, 1u);
}

TEST(FrameServer, StripedSubmissionMatchesWholeFrame) {
  FrameServer server({.workers = 4, .queue_capacity = 8});
  const auto config = make_config(64, 64, 8);
  const auto id =
      server.open_stream({.name = "big", .kind = EngineKind::Compressed, .engine = config});
  const auto frame = image::make_natural_image(64, 64, {.seed = 13});

  const auto result = server.submit_striped(id, frame, 8);
  EXPECT_EQ(result.reconstructed, core::roundtrip_image(frame, config));
  EXPECT_EQ(result.reconstructed, frame);
  EXPECT_EQ(result.stats.windows_emitted(), (64u - 8 + 1) * (64u - 8 + 1));

  const auto stats = server.stats();
  EXPECT_EQ(stats.streams[id].frames_completed, 1u);  // one frame, many stripes
  EXPECT_GT(stats.streams[id].latency.max_ms(), 0.0);
}

TEST(FrameServer, ValidatesStreamIdAndGeometry) {
  FrameServer server({.workers = 1, .queue_capacity = 4});
  const auto config = make_config(16, 16, 4);
  const auto id =
      server.open_stream({.name = "v", .kind = EngineKind::Compressed, .engine = config});
  // Unknown ids are a reportable outcome, not an exception: with concurrent
  // close_stream() a stale id is a race, and races must not throw.
  const auto receipt = server.submit_frame(id + 1, image::make_gradient_image(16, 16));
  EXPECT_FALSE(receipt.accepted());
  EXPECT_EQ(receipt.error, SubmitError::UnknownStream);
  // Geometry mismatch against an open stream is still a caller bug.
  EXPECT_THROW((void)server.submit(id, image::make_gradient_image(16, 8)), std::invalid_argument);
  const auto trad =
      server.open_stream({.name = "t", .kind = EngineKind::Traditional, .engine = config});
  EXPECT_THROW((void)server.submit_striped(trad, image::make_gradient_image(16, 16), 2),
               std::invalid_argument);
  EXPECT_THROW((void)server.submit_striped(trad + 7, image::make_gradient_image(16, 16), 2),
               std::invalid_argument);
}

TEST(FrameServer, CloseStreamRetiresSlotAndReusesId) {
  FrameServer server({.workers = 1, .queue_capacity = 4});
  const auto config = make_config(16, 16, 4);
  const auto a =
      server.open_stream({.name = "a", .kind = EngineKind::Compressed, .engine = config});
  const auto b =
      server.open_stream({.name = "b", .kind = EngineKind::Compressed, .engine = config});
  EXPECT_EQ(server.active_streams(), 2u);

  EXPECT_TRUE(server.close_stream(a));
  EXPECT_FALSE(server.close_stream(a));  // already closed
  EXPECT_FALSE(server.close_stream(b + 100));
  EXPECT_EQ(server.active_streams(), 1u);

  // Submissions to the retired id fail loudly, the live stream still works.
  EXPECT_EQ(server.submit_frame(a, image::make_gradient_image(16, 16)).error,
            SubmitError::UnknownStream);
  EXPECT_TRUE(server.submit(b, image::make_gradient_image(16, 16)));
  server.wait_idle();

  // Closed stats disappear from the snapshot; the slot table stays bounded.
  const auto snap = server.stats();
  ASSERT_EQ(snap.streams.size(), 1u);
  EXPECT_EQ(snap.streams[0].name, "b");

  const auto reused =
      server.open_stream({.name = "a2", .kind = EngineKind::Compressed, .engine = config});
  EXPECT_EQ(reused, a);
  EXPECT_EQ(server.stream_slots(), 2u);
  EXPECT_TRUE(server.submit(reused, image::make_gradient_image(16, 16)));
  server.wait_idle();
}

// stats().metrics counts every completed frame since start, so a closed
// stream's engine counters stay in it (GET /metrics and STATS_REPLY never
// go backwards when a session ends); only its per-stream snapshot leaves.
TEST(FrameServer, StatsKeepEngineTotalsOfClosedStreams) {
  constexpr std::size_t kWidth = 24, kHeight = 20, kWindow = 4, kFrames = 3;
  FrameServer server({.workers = 2, .queue_capacity = 8});
  const auto id = server.open_stream({.name = "closed",
                                      .kind = EngineKind::Compressed,
                                      .engine = make_config(kWidth, kHeight, kWindow),
                                      .keep_output = false});
  const auto frame = image::make_natural_image(kWidth, kHeight, {.seed = 4});
  for (std::size_t f = 0; f < kFrames; ++f) ASSERT_TRUE(server.submit(id, frame));
  server.wait_idle();

  const auto windows = core::EngineMetricIds::get().windows;
  const std::uint64_t expected = kFrames * (kWidth - kWindow + 1) * (kHeight - kWindow + 1);
  const auto open = server.stats();
  EXPECT_EQ(open.metrics.sum(windows), expected);
  EXPECT_EQ(open.frames_submitted, kFrames);
  EXPECT_EQ(open.frames_completed, kFrames);

  ASSERT_TRUE(server.close_stream(id));
  const auto snap = server.stats();
  EXPECT_TRUE(snap.streams.empty());
  EXPECT_EQ(snap.metrics.sum(windows), expected);
  EXPECT_EQ(snap.frames_submitted, kFrames);
  EXPECT_EQ(snap.frames_completed, kFrames);
  EXPECT_EQ(snap.frames_rejected, 0u);
}

TEST(FrameServer, ReentrantEngineProducesIdenticalResultsAcrossThreads) {
  // The refactored const engines are the foundation of the runtime: hammer
  // one engine instance from several raw threads and require identical
  // output every time.
  const auto config = make_config(24, 20, 4);
  const core::CompressedEngine engine(config);
  const auto frame = image::make_natural_image(24, 20, {.seed = 9});
  const auto expected = core::roundtrip_image(frame, config);

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        const auto result = engine.run_reentrant(
            frame, [](std::size_t, std::size_t, const core::WindowView&) {});
        if (!(result.reconstructed == expected)) ++mismatches;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace swc::runtime
