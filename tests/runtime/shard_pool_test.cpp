// Worker-pool suite (ctest -L shard): the Block/Reject/shutdown submit
// contract, strand ordering, idle workers draining a hot strand while
// others are wedged, arena recycling across stream lifetimes, the
// differential against a direct engine run, stripe fan-out on a saturated
// pool, shutdown racing live producers, and a TSan-targeted stress
// mirroring runtime_stress. CMake adds dedicated ASan/TSan entries running
// this suite when the build is configured with -DSWC_SANITIZE.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/streaming_engine.hpp"
#include "image/synthetic.hpp"
#include "runtime/frame_server.hpp"
#include "runtime/shard_pool.hpp"
#include "runtime/stripe.hpp"

namespace swc::runtime {
namespace {

core::EngineConfig make_config(std::size_t w, std::size_t h, std::size_t n,
                               int threshold = 0) {
  core::EngineConfig config;
  config.spec = {w, h, n};
  config.codec.threshold = threshold;
  return config;
}

// Parks every worker on a job that blocks until the gate opens: the
// deterministic way to saturate a pool. The jobs share the gate's state, and
// the destructor opens the gate, so declare the gate after the pool: a test
// that exits early then releases the workers before the pool joins them.
class Gate {
 public:
  Gate() = default;
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;
  ~Gate() { open(); }

  // Returns once every worker holds a gate job.
  void park_workers(ShardPool& pool) {
    for (std::size_t w = 0; w < pool.worker_count(); ++w) {
      ASSERT_TRUE(pool.submit([parked = parked_, opened = opened_] {
        ++*parked;
        opened.wait();
      }));
    }
    while (parked_->load() < pool.worker_count()) std::this_thread::yield();
  }

  void open() {
    if (is_open_) return;
    is_open_ = true;
    promise_.set_value();
  }

 private:
  std::promise<void> promise_;
  std::shared_future<void> opened_ = promise_.get_future().share();
  std::shared_ptr<std::atomic<std::size_t>> parked_ =
      std::make_shared<std::atomic<std::size_t>>(0);
  bool is_open_ = false;
};

// Submit contract, one worker parked on a gate: the worker holds no budget,
// so the budget counts only queued jobs.
TEST(ShardPool, RejectFailsFastWhenBudgetIsSpent) {
  ShardPool pool({.workers = 1, .queue_capacity = 2});
  Gate gate;
  gate.park_workers(pool);
  auto strand = pool.make_strand();

  EXPECT_EQ(pool.submit_outcome([] {}, SubmitPolicy::Reject), SubmitOutcome::Accepted);
  EXPECT_EQ(pool.submit_outcome(strand, [] {}, SubmitPolicy::Reject), SubmitOutcome::Accepted);
  // Budget spent, worker busy: Reject fails without blocking, on either path.
  EXPECT_EQ(pool.submit_outcome([] {}, SubmitPolicy::Reject), SubmitOutcome::QueueFull);
  EXPECT_EQ(pool.submit_outcome(strand, [] {}, SubmitPolicy::Reject), SubmitOutcome::QueueFull);

  gate.open();
  pool.wait_idle();
  // After draining, submissions are accepted again.
  EXPECT_EQ(pool.submit_outcome([] {}, SubmitPolicy::Reject), SubmitOutcome::Accepted);
  pool.wait_idle();
}

TEST(ShardPool, BlockWaitsForBudget) {
  ShardPool pool({.workers = 1, .queue_capacity = 1});
  Gate gate;
  gate.park_workers(pool);
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.submit([&] { ++ran; }));  // spends the budget

  std::atomic<bool> blocked_submit_returned{false};
  std::thread producer([&] {
    EXPECT_EQ(pool.submit_outcome([&] { ++ran; }, SubmitPolicy::Block), SubmitOutcome::Accepted);
    blocked_submit_returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(blocked_submit_returned.load());  // backpressure is holding it

  gate.open();
  producer.join();
  pool.wait_idle();
  EXPECT_TRUE(blocked_submit_returned.load());
  EXPECT_EQ(ran.load(), 2);
  EXPECT_GE(pool.queue_high_water(), 1u);
}

TEST(ShardPool, ShutdownReleasesBlockedSubmitter) {
  ShardPool pool({.workers = 1, .queue_capacity = 1});
  Gate gate;
  gate.park_workers(pool);
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.submit([&] { ++ran; }));  // spends the budget

  std::promise<SubmitOutcome> outcome;
  auto blocked = outcome.get_future();
  std::thread producer(
      [&] { outcome.set_value(pool.submit_outcome([&] { ++ran; }, SubmitPolicy::Block)); });
  EXPECT_EQ(blocked.wait_for(std::chrono::milliseconds(20)), std::future_status::timeout);

  // shutdown() joins the parked worker, so it runs on its own thread; the
  // blocked submitter must be released while the gate is still closed.
  std::thread closer([&] { pool.shutdown(); });
  const bool released = blocked.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  gate.open();
  closer.join();
  producer.join();
  ASSERT_TRUE(released) << "shutdown left a Block submitter waiting for budget";
  EXPECT_EQ(blocked.get(), SubmitOutcome::ShutDown);
  EXPECT_EQ(ran.load(), 1);  // the accepted job drained; the refused one never ran
}

TEST(ShardPool, WaitIdleIsACompletionBarrier) {
  ShardPool pool({.workers = 4, .queue_capacity = 16});
  auto strand = pool.make_strand();
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(pool.submit([&] { ++done; }));
    ASSERT_TRUE(pool.submit(strand, [&] { ++done; }));
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 64);
  const auto util = pool.worker_utilization();
  EXPECT_EQ(util.size(), 4u);
  for (const double u : util) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(ShardPool, SubmitAfterShutdownReturnsShutDown) {
  ShardPool pool({.workers = 2, .queue_capacity = 4});
  auto strand = pool.make_strand();
  pool.shutdown();
  EXPECT_EQ(pool.submit_outcome([] {}), SubmitOutcome::ShutDown);
  EXPECT_EQ(pool.submit_outcome([] {}, SubmitPolicy::Reject), SubmitOutcome::ShutDown);
  EXPECT_EQ(pool.submit_outcome(strand, [] {}), SubmitOutcome::ShutDown);
}

// A budget of 0 (run_serve --queue 0) would refuse every Reject submit and
// park every Block submit forever; the pool clamps it to 1.
TEST(ShardPool, ZeroQueueCapacityIsClampedToOne) {
  ShardPool pool({.workers = 1, .queue_capacity = 0});
  EXPECT_EQ(pool.queue_capacity(), 1u);
  std::atomic<int> ran{0};
  EXPECT_EQ(pool.submit_outcome([&] { ++ran; }, SubmitPolicy::Reject), SubmitOutcome::Accepted);

  std::promise<SubmitOutcome> outcome;
  auto blocked = outcome.get_future();
  std::thread producer(
      [&] { outcome.set_value(pool.submit_outcome([&] { ++ran; }, SubmitPolicy::Block)); });
  const bool returned = blocked.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  if (!returned) pool.shutdown();  // releases the submitter, so the test fails instead of hanging
  producer.join();
  ASSERT_TRUE(returned) << "Block submit never got budget";
  EXPECT_EQ(blocked.get(), SubmitOutcome::Accepted);
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 2);
}

// Stripe fan-out is caller-helping: the caller drains every stripe itself
// when no helper runs, so a saturated pool cannot stall it. Both ways a pool
// can be saturated: (a) the budget is spent, so every helper is refused;
// (b) the budget is free, so the helpers are accepted but queue behind the
// gate. Either way the call returns the T = 0 frame bit-exact before the gate
// opens, and the late helpers in (b) then run against the heap-shared
// progress state after the caller has returned.
TEST(ShardPool, StripedRunCompletesWhenPoolIsSaturated) {
  const std::size_t size = 64, window = 8;
  const auto config = make_config(size, size, window);
  const auto img = image::make_natural_image(size, size, {.seed = 5});
  constexpr std::size_t kBudget = 2;
  for (const bool budget_spent : {true, false}) {
    SCOPED_TRACE(budget_spent ? "helpers refused" : "helpers queued behind the gate");
    ShardPool pool({.workers = 2, .queue_capacity = kBudget});
    Gate gate;
    gate.park_workers(pool);
    if (budget_spent) {
      for (std::size_t i = 0; i < kBudget; ++i) {
        ASSERT_TRUE(pool.submit([] {}, SubmitPolicy::Reject));
      }
    }

    auto striped = std::async(std::launch::async,
                              [&] { return run_compressed_striped(config, img, 8, &pool); });
    const bool returned = striped.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
    const std::size_t queued = pool.queue_depth();  // exact: every worker is parked
    gate.open();
    const auto result = striped.get();
    ASSERT_TRUE(returned) << "striped run waited on helpers stuck behind the gate";
    EXPECT_EQ(queued, kBudget);  // (a) the fillers, (b) the two accepted helpers
    EXPECT_EQ(result.reconstructed, img);
    EXPECT_EQ(result.stats.windows_emitted(), (size - window + 1) * (size - window + 1));
    pool.wait_idle();
  }
}

// A stream's frames must complete in submission order even though its strand
// token may land on a different worker after every frame: at most one frame
// of a stream runs at a time, and completions are published before the
// token reposts.
TEST(ShardPool, StreamCompletionsArriveInSubmitOrder) {
  constexpr std::uint64_t kFrames = 200;
  FrameServer server({.workers = 4, .queue_capacity = 64});
  const auto config = make_config(16, 16, 4);
  const auto id = server.open_stream(
      {.name = "ordered", .kind = EngineKind::Compressed, .engine = config, .keep_output = false});
  const auto frame = image::make_natural_image(16, 16, {.seed = 7});

  std::mutex order_mutex;
  std::vector<std::uint64_t> completion_order;
  for (std::uint64_t f = 0; f < kFrames; ++f) {
    ASSERT_TRUE(server.submit(id, frame, SubmitPolicy::Block, [&](FrameResult result) {
      std::unique_lock lock(order_mutex);
      completion_order.push_back(result.frame_seq);
    }));
  }
  server.wait_idle();

  ASSERT_EQ(completion_order.size(), kFrames);
  for (std::uint64_t f = 0; f < kFrames; ++f) {
    EXPECT_EQ(completion_order[f], f) << "completion " << f << " out of order";
  }
}

// 100:1 skew: two of four workers are wedged on blocker jobs while a hot
// strand holds 100 queued jobs and a cold strand one. The two idle workers
// must drain both strands — the hot token reposts to the back of the queue
// after every job, and whichever idle worker is free picks it up next.
TEST(ShardPool, IdleWorkersDrainHotStrandWhileOthersAreWedged) {
  constexpr std::uint64_t kHotJobs = 100;
  ShardPool pool({.workers = 4, .queue_capacity = 256});

  std::atomic<bool> release{false};
  std::atomic<int> wedged{0};
  std::atomic<std::uint64_t> quick_done{0};

  // Two blockers on distinct strands, so both run simultaneously.
  for (int b = 0; b < 2; ++b) {
    ASSERT_TRUE(pool.submit(pool.make_strand(), [&] {
      ++wedged;
      while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
    }));
  }
  while (wedged.load() < 2) std::this_thread::yield();
  auto hot = pool.make_strand();
  for (std::uint64_t j = 0; j < kHotJobs; ++j) {
    ASSERT_TRUE(pool.submit(hot, [&] { ++quick_done; }));
  }
  ASSERT_TRUE(pool.submit(pool.make_strand(), [&] { ++quick_done; }));

  // All quick jobs must drain while the blockers still wedge two workers.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (quick_done.load() < kHotJobs + 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "idle workers never drained";
    std::this_thread::yield();
  }
  release.store(true, std::memory_order_release);
  pool.wait_idle();
  EXPECT_EQ(pool.stats().executed, kHotJobs + 3);  // 100 hot + 1 cold + 2 blockers
}

// Arena buffers outlive the stream that produced them: frames recycled while
// stream A was open must be handed back out (no fresh allocation) to a
// stream B opened after A closed.
TEST(ShardPool, ArenaRecyclesPayloadsAcrossStreamLifetimes) {
  FrameServer server({.workers = 2, .queue_capacity = 16});
  const auto config = make_config(32, 32, 4);
  const auto frame = image::make_natural_image(32, 32, {.seed = 3});

  const auto stream_a = server.open_stream(
      {.name = "a", .kind = EngineKind::Compressed, .engine = config, .keep_output = false});
  for (int f = 0; f < 8; ++f) {
    auto payload = server.acquire_frame(stream_a);
    ASSERT_EQ(payload.width(), 32u);
    ASSERT_EQ(payload.height(), 32u);
    std::copy(frame.pixels().begin(), frame.pixels().end(), payload.pixels().begin());
    ASSERT_TRUE(server.submit(stream_a, std::move(payload), SubmitPolicy::Block));
  }
  server.wait_idle();

  auto stats = server.stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  const auto after_a = stats.shards[0].arena;
  EXPECT_GE(after_a.recycled, 8u) << "processed payloads must return to the arena";

  ASSERT_TRUE(server.close_stream(stream_a));
  const auto stream_b = server.open_stream(
      {.name = "b", .kind = EngineKind::Compressed, .engine = config, .keep_output = false});

  auto reused = server.acquire_frame(stream_b);
  ASSERT_EQ(reused.size(), frame.size());
  stats = server.stats();
  const auto after_b = stats.shards[0].arena;
  EXPECT_GT(after_b.reuses, after_a.reuses)
      << "a stream opened after close_stream must draw from the recycled pool";
  ASSERT_TRUE(server.submit(stream_b, std::move(reused), SubmitPolicy::Block));
  server.wait_idle();
}

// Payloads the arena never handed out (the serve path builds frames on the
// parser's buffers, not acquire_frame) are released on return, not parked
// where no acquire would reuse them. Ownership is per buffer, not a count:
// a refused submit hands its acquired payload back, and outside payloads
// returned while an acquired one is held neither take its place nor make
// the arena drop it later.
TEST(ShardPool, ArenaReleasesPayloadsItDidNotHandOut) {
  FrameServer server({.workers = 1, .queue_capacity = 1});
  const auto stream = server.open_stream({.name = "foreign",
                                          .kind = EngineKind::Compressed,
                                          .engine = make_config(64, 64, 4),
                                          .keep_output = false});
  const auto outside = image::make_natural_image(64, 64, {.seed = 5});
  const auto arena = [&] { return server.stats().shards.at(0).arena; };
  for (int f = 0; f < 8; ++f) {
    ASSERT_TRUE(server.submit(stream, outside, SubmitPolicy::Block));
  }
  server.wait_idle();
  EXPECT_EQ(arena().retained_bytes, 0u);
  EXPECT_EQ(arena().recycled, 0u);
  EXPECT_EQ(arena().outstanding, 0);

  // Worker parked on a gated frame, budget spent: the acquired frame is refused.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<bool> running{false};
  ASSERT_TRUE(server.submit(stream, outside, SubmitPolicy::Block, [&, opened](FrameResult) {
    running = true;
    opened.wait();
  }));
  while (!running) std::this_thread::yield();
  ASSERT_TRUE(server.submit(stream, outside, SubmitPolicy::Reject));
  ASSERT_FALSE(server.submit(stream, server.acquire_frame(stream), SubmitPolicy::Reject));
  const std::size_t own_bytes = FrameArena::size_class(64 * 64);
  EXPECT_EQ(arena().outstanding, 0);
  EXPECT_EQ(arena().recycled, 1u) << "a refused acquired payload returns to the arena";
  EXPECT_EQ(arena().retained_bytes, own_bytes);
  gate.set_value();
  server.wait_idle();

  // Hold an acquired frame while outside payloads come back.
  auto held = server.acquire_frame(stream);
  for (int f = 0; f < 8; ++f) {
    ASSERT_TRUE(server.submit(stream, outside, SubmitPolicy::Block));
  }
  server.wait_idle();
  EXPECT_EQ(arena().retained_bytes, 0u) << "an outside payload took the held frame's place";
  EXPECT_EQ(arena().recycled, 1u);
  EXPECT_EQ(arena().outstanding, 1);

  ASSERT_TRUE(server.submit(stream, std::move(held), SubmitPolicy::Block));
  server.wait_idle();
  EXPECT_EQ(arena().retained_bytes, own_bytes) << "the held frame was dropped on return";
  EXPECT_EQ(arena().recycled, 2u);
  EXPECT_EQ(arena().outstanding, 0);
  EXPECT_EQ(arena().dropped, 18u);  // every outside payload
}

// Frames served through the pool must be identical to a direct reentrant
// engine run: same reconstruction bits, same window counts, at lossless and
// lossy thresholds alike.
TEST(ShardPool, SingleShardMatchesDirectEngineBitExactly) {
  for (const int threshold : {0, 2}) {
    const auto config = make_config(40, 40, 8, threshold);
    const core::CompressedEngine direct(config);
    const auto frame = image::make_natural_image(40, 40, {.seed = 11});
    const auto expected = direct.run_reentrant(
        frame, [](std::size_t, std::size_t, const core::WindowView&) {});

    FrameServer server({.workers = 4, .queue_capacity = 8});
    const auto id = server.open_stream(
        {.name = "diff", .kind = EngineKind::Compressed, .engine = config});

    std::mutex result_mutex;
    std::vector<core::CompressedRunResult> results(4);
    for (int f = 0; f < 4; ++f) {
      ASSERT_TRUE(server.submit(id, frame, SubmitPolicy::Block, [&, f](FrameResult r) {
        std::unique_lock lock(result_mutex);
        results[static_cast<std::size_t>(f)] = {std::move(r.reconstructed), std::move(r.stats)};
      }));
    }
    server.wait_idle();

    for (const auto& result : results) {
      EXPECT_EQ(result.reconstructed, expected.reconstructed)
          << "threshold " << threshold << ": pooled run diverged from direct engine";
      EXPECT_EQ(result.stats.windows_emitted(), expected.stats.windows_emitted());
    }
  }
}

// TSan-targeted stress mirroring RuntimeStress.ManySmallFramesAcrossEight-
// Workers: several producers over strands, a stats poller racing the
// workers (pool stats + utilization + queue probe), striped submissions
// mixed in, and conservation asserts at the end. No sleeps, no timing
// assumptions.
TEST(ShardPoolStress, SkewedProducersWithLiveStatsPoller) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kFramesPerProducer = 40;

  FrameServer server({.workers = 8, .queue_capacity = 32});
  const auto config = make_config(16, 16, 4);
  const auto frame = image::make_natural_image(16, 16, {.seed = 42});
  const auto big = make_config(48, 48, 8);
  const auto big_frame = image::make_natural_image(48, 48, {.seed = 2});

  std::vector<std::uint32_t> stream_ids;
  for (std::size_t i = 0; i < kProducers; ++i) {
    stream_ids.push_back(server.open_stream({.name = "s" + std::to_string(i),
                                             .kind = EngineKind::Compressed,
                                             .engine = config,
                                             .keep_output = false}));
  }
  const auto big_id =
      server.open_stream({.name = "big", .kind = EngineKind::Compressed, .engine = big});

  std::atomic<std::uint64_t> callbacks{0};
  std::atomic<bool> stop_polling{false};
  std::thread poller([&] {
    while (!stop_polling.load()) {
      const auto snap = server.stats();
      EXPECT_LE(snap.frames_completed, snap.frames_submitted);
      EXPECT_EQ(snap.shards.size(), 1u);
      for (const auto& shard : snap.shards) {
        EXPECT_LE(shard.queue_depth, shard.queue_capacity);
        for (const double u : shard.worker_utilization) {
          EXPECT_GE(u, 0.0);
          EXPECT_LE(u, 1.0);
        }
      }
      EXPECT_LE(server.queue_depth(), server.queue_capacity());
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t f = 0; f < kFramesPerProducer; ++f) {
        EXPECT_TRUE(server.submit(stream_ids[p], frame, SubmitPolicy::Block,
                                  [&](FrameResult) { ++callbacks; }));
      }
    });
  }
  for (int i = 0; i < 4; ++i) {
    const auto result = server.submit_striped(big_id, big_frame, 8);
    EXPECT_EQ(result.reconstructed, big_frame);
  }
  for (auto& t : producers) t.join();
  server.wait_idle();
  stop_polling = true;
  poller.join();

  const auto stats = server.stats();
  const std::uint64_t expected = kProducers * kFramesPerProducer;
  EXPECT_EQ(callbacks.load(), expected);
  EXPECT_EQ(stats.frames_completed, expected + 4);  // striped frames count too
  EXPECT_EQ(stats.frames_rejected, 0u);
  std::uint64_t per_stream = 0;
  for (const auto& s : stats.streams) per_stream += s.frames_completed;
  EXPECT_EQ(per_stream, expected + 4);
}

// Shutdown with queued strand tokens: every accepted job still executes
// (drain-in-place), and the pool joins cleanly.
TEST(ShardPoolStress, ShutdownDrainsEveryAcceptedJob) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> executed{0};
    {
      ShardPool pool({.workers = 3, .queue_capacity = 64});
      std::vector<std::thread> producers;
      for (int p = 0; p < 3; ++p) {
        producers.emplace_back([&] {
          auto strand = pool.make_strand();
          for (int j = 0; j < 50; ++j) {
            if (pool.submit(strand, [&] { ++executed; }, SubmitPolicy::Block)) ++accepted;
          }
        });
      }
      for (auto& t : producers) t.join();
      pool.shutdown();
    }
    EXPECT_EQ(executed.load(), accepted.load()) << "accepted jobs lost at shutdown";
  }
}

// Shutdown while producers are still submitting: Block submitters on
// strands and plain ones keep offering jobs until they are told ShutDown,
// and every job the pool accepted — including one whose producer was
// between budget and enqueue when the pool closed — runs before shutdown()
// returns. A worker that saw such a producer's window open on a closed pool
// sleeps until that producer wakes it; if the wake-up missed it, shutdown()
// would hang joining it.
TEST(ShardPoolStress, ShutdownRacingProducersLosesNoAcceptedJob) {
  constexpr int kRounds = 200;
  constexpr std::uint64_t kAcceptsBeforeShutdown = 8;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> executed{0};
    {
      ShardPool pool({.workers = 3, .queue_capacity = 4});
      std::vector<std::thread> producers;
      for (int p = 0; p < 4; ++p) {
        producers.emplace_back([&, on_strand = p < 2] {
          const auto strand = on_strand ? pool.make_strand() : nullptr;
          for (;;) {
            auto job = [&] { ++executed; };
            const SubmitOutcome outcome = on_strand ? pool.submit_outcome(strand, job)
                                                    : pool.submit_outcome(job);
            if (outcome == SubmitOutcome::ShutDown) return;
            EXPECT_EQ(outcome, SubmitOutcome::Accepted);
            ++accepted;
          }
        });
      }
      while (accepted.load() < kAcceptsBeforeShutdown) std::this_thread::yield();
      pool.shutdown();
      for (auto& t : producers) t.join();
    }
    ASSERT_EQ(executed.load(), accepted.load()) << "round " << round << " lost accepted jobs";
  }
}

}  // namespace
}  // namespace swc::runtime
