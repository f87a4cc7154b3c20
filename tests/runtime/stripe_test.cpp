// Stripe-parallel correctness: halo geometry, and the headline equivalence
// claim — a striped scan is bit-identical to the whole-frame scan at
// threshold 0, both in the window (kernel) outputs and in the reconstructed
// image, for any stripe count, with or without a worker pool.

#include "runtime/stripe.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "core/streaming_engine.hpp"
#include "image/synthetic.hpp"
#include "kernels/kernels.hpp"
#include "runtime/shard_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "window/apply.hpp"

namespace swc::runtime {
namespace {

core::EngineConfig make_config(std::size_t w, std::size_t h, std::size_t n, int threshold = 0) {
  core::EngineConfig config;
  config.spec = {w, h, n};
  config.codec.threshold = threshold;
  return config;
}

TEST(StripePlan, HaloGeometryIsExact) {
  const core::SlidingWindowSpec spec{64, 48, 8};
  const auto stripes = plan_stripes(spec, 4);
  ASSERT_EQ(stripes.size(), 4u);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < stripes.size(); ++i) {
    const auto& s = stripes[i];
    // Owned window rows + (N-1)-row halo.
    EXPECT_EQ(s.input_rows, s.output_rows + spec.window - 1);
    EXPECT_EQ(s.input_row_begin, s.output_row_begin);
    EXPECT_GE(s.output_rows, 1u);
    if (i > 0) {
      // Contiguous ownership; adjacent stripes overlap by exactly N-1 rows.
      EXPECT_EQ(s.output_row_begin, stripes[i - 1].output_row_begin + stripes[i - 1].output_rows);
      EXPECT_EQ(stripes[i - 1].input_row_end() - s.input_row_begin, spec.window - 1);
    }
    covered += s.output_rows;
  }
  EXPECT_EQ(covered, spec.image_height - spec.window + 1);
  EXPECT_EQ(stripes.back().input_row_end(), spec.image_height);
}

TEST(StripePlan, ClampsToAvailableWindowRows) {
  const core::SlidingWindowSpec spec{16, 10, 8};  // only 3 window rows
  EXPECT_EQ(plan_stripes(spec, 8).size(), 3u);
  EXPECT_EQ(plan_stripes(spec, 1).size(), 1u);
  EXPECT_EQ(plan_stripes(spec, 0).size(), 1u);
}

TEST(StripeMerge, WindowCountMatchesWholeFrameExactly) {
  const auto config = make_config(40, 36, 6);
  const auto img = image::make_natural_image(40, 36, {.seed = 11});
  const auto striped = run_compressed_striped(config, img, 5, nullptr);
  const std::size_t expected = (40 - 6 + 1) * (36 - 6 + 1);
  EXPECT_EQ(striped.stats.windows_emitted(), expected);
}

TEST(StripeMerge, TelemetryFoldMatchesWholeFrameForSingleStripe) {
  // A 1-stripe striped run is the whole-frame scan routed through the merge
  // path, so every counter and gauge must fold to identical values. Timer
  // sums are wall-clock and legitimately differ run to run, so only their
  // sample counts are compared.
  const auto config = make_config(40, 32, 8);
  const auto img = image::make_natural_image(40, 32, {.seed = 13});
  const core::CompressedEngine whole(config);
  const auto reference =
      whole.run_reentrant(img, [](std::size_t, std::size_t, const core::WindowView&) {});
  const auto striped = run_compressed_striped(config, img, 1, nullptr);

  const auto& ids = core::EngineMetricIds::get();
  for (const auto id : {ids.rows, ids.windows, ids.codec_columns, ids.payload_bits,
                        ids.management_bits}) {
    EXPECT_EQ(striped.stats.metrics.sum(id), reference.stats.metrics.sum(id))
        << telemetry::Registry::info(id).name;
  }
  for (const auto id : {ids.row_bits, ids.stream_bits}) {
    EXPECT_EQ(striped.stats.metrics.max(id), reference.stats.metrics.max(id))
        << telemetry::Registry::info(id).name;
  }
  for (const auto id : {ids.stage_decompose, ids.stage_encode, ids.stage_recompose}) {
    EXPECT_EQ(striped.stats.metrics.count(id), reference.stats.metrics.count(id))
        << telemetry::Registry::info(id).name;
  }
}

TEST(StripeMerge, FoldedTelemetryStaysConsistentAcrossStripeCounts) {
  // Multi-stripe runs perform fewer row transitions than the whole-frame
  // scan (each stripe re-reads its halo from the source image), so payload
  // counters legitimately shrink — but the merged snapshot must equal the
  // fold of each stripe's standalone engine run, and the window cover is
  // invariant.
  const auto config = make_config(48, 40, 8);
  const auto img = image::make_natural_image(48, 40, {.seed = 17});
  const std::size_t expected_windows = (48 - 8 + 1) * (40 - 8 + 1);
  const auto& ids = core::EngineMetricIds::get();

  for (const std::size_t stripes : {std::size_t{2}, std::size_t{3}, std::size_t{5}}) {
    const auto result = run_compressed_striped(config, img, stripes, nullptr);
    const auto& m = result.stats.metrics;
    EXPECT_EQ(m.sum(ids.windows), expected_windows) << stripes << " stripes";
    std::uint64_t rows = 0, payload = 0, management = 0, row_hw = 0;
    for (const Stripe& s : plan_stripes(config.spec, stripes)) {
      core::EngineConfig local = config;
      local.spec.image_height = s.input_rows;
      const auto part = core::CompressedEngine(local).run_reentrant(
          extract_stripe(img, s), [](std::size_t, std::size_t, const core::WindowView&) {});
      rows += part.stats.metrics.sum(ids.rows);
      payload += part.stats.metrics.sum(ids.payload_bits);
      management += part.stats.metrics.sum(ids.management_bits);
      row_hw = std::max<std::uint64_t>(row_hw, part.stats.metrics.max(ids.row_bits));
    }
    EXPECT_EQ(m.sum(ids.rows), rows) << stripes << " stripes";
    EXPECT_EQ(m.sum(ids.payload_bits), payload) << stripes << " stripes";
    EXPECT_EQ(m.sum(ids.management_bits), management) << stripes << " stripes";
    EXPECT_EQ(m.max(ids.row_bits), row_hw) << stripes << " stripes";
  }
}

class StripeEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StripeEquivalence, BitIdenticalToWholeFrameAtThresholdZero) {
  const std::size_t num_stripes = GetParam();
  const std::size_t w = 48, h = 40, n = 8;
  const auto config = make_config(w, h, n, /*threshold=*/0);
  const auto img = image::make_natural_image(w, h, {.seed = 7});

  // Whole-frame reference: window outputs and reconstructed image.
  const auto [ow, oh] = window::output_dims(config.spec);
  image::Image<std::uint8_t> reference(ow, oh);
  const core::CompressedEngine whole(config);
  const kernels::BoxMeanKernel kernel;
  auto whole_result =
      whole.run_reentrant(img, [&](std::size_t r, std::size_t c, const core::WindowView& win) {
        reference.at(c, r) = kernel(r, c, win);
      });

  image::Image<std::uint8_t> striped_out(ow, oh);
  const auto striped = run_compressed_striped(
      config, img, num_stripes, nullptr,
      [&](std::size_t r, std::size_t c, const core::WindowView& win) {
        striped_out.at(c, r) = kernel(r, c, win);
      });

  EXPECT_EQ(striped_out, reference);
  EXPECT_EQ(striped.reconstructed, whole_result.reconstructed);
  EXPECT_EQ(striped.reconstructed, img);  // threshold 0 is lossless end to end
  EXPECT_EQ(striped.stats.windows_emitted(), whole_result.stats.windows_emitted());
  // Stripes owning >= 2 window rows perform row transitions and therefore
  // record codec traffic; single-row stripes legitimately never recompress.
  if (num_stripes < h - n + 1) {
    EXPECT_GT(striped.stats.max_row_bits(), 0u);
  } else {
    EXPECT_EQ(striped.stats.metrics.sum(core::EngineMetricIds::get().rows), 0u);
  }
  EXPECT_GT(whole_result.stats.max_row_bits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(StripeCounts, StripeEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{3},
                                           std::size_t{7}, std::size_t{33}));

TEST(StripeEquivalencePooled, PooledRunMatchesSequentialRun) {
  const std::size_t w = 64, h = 64, n = 8;
  const auto config = make_config(w, h, n, /*threshold=*/0);
  const auto img = image::make_natural_image(w, h, {.seed = 21});

  ShardPool pool({.workers = 4, .queue_capacity = 16, .pin_threads = false});
  const auto pooled = run_compressed_striped(config, img, 8, &pool);
  const auto sequential = run_compressed_striped(config, img, 8, nullptr);

  EXPECT_EQ(pooled.reconstructed, sequential.reconstructed);
  EXPECT_EQ(pooled.reconstructed, img);
  EXPECT_EQ(pooled.stats.windows_emitted(), sequential.stats.windows_emitted());
  const auto rows = core::EngineMetricIds::get().rows;
  EXPECT_EQ(pooled.stats.metrics.sum(rows), sequential.stats.metrics.sum(rows));
}

TEST(StripeEquivalencePooled, AdversarialContentStaysExact) {
  // Checkerboard maximises detail coefficients — the worst case for the
  // codec is still exact at threshold 0.
  const std::size_t w = 32, h = 28, n = 4;
  const auto config = make_config(w, h, n, /*threshold=*/0);
  const auto img = image::make_checkerboard_image(w, h, 1);
  ShardPool pool({.workers = 3, .queue_capacity = 8, .pin_threads = false});
  const auto striped = run_compressed_striped(config, img, 6, &pool);
  EXPECT_EQ(striped.reconstructed, img);
}

TEST(Stripe, LossyStripedRunStillCoversEveryWindow) {
  // At threshold > 0 stripe seams change drift, so outputs may differ from
  // the whole-frame scan — but the cover (one window per position) and the
  // merged stats structure must hold.
  const auto config = make_config(32, 24, 4, /*threshold=*/4);
  const auto img = image::make_natural_image(32, 24, {.seed = 3});
  const auto striped = run_compressed_striped(config, img, 4, nullptr);
  EXPECT_EQ(striped.stats.windows_emitted(), (32u - 4 + 1) * (24u - 4 + 1));
  EXPECT_EQ(striped.reconstructed.width(), 32u);
  EXPECT_EQ(striped.reconstructed.height(), 24u);
}

}  // namespace
}  // namespace swc::runtime
