#include "core/streaming_engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "image/metrics.hpp"
#include "image/synthetic.hpp"

namespace swc::core {
namespace {

EngineConfig make_config(std::size_t w, std::size_t h, std::size_t n, int threshold = 0) {
  EngineConfig config;
  config.spec = {w, h, n};
  config.codec.threshold = threshold;
  return config;
}

// Collects every window as a flat byte vector keyed by position.
std::vector<std::vector<std::uint8_t>> collect_windows(auto& engine, const image::ImageU8& img,
                                                       std::size_t n) {
  std::vector<std::vector<std::uint8_t>> out;
  engine.run(img, [&](std::size_t, std::size_t, const WindowView& win) {
    std::vector<std::uint8_t> flat;
    flat.reserve(n * n);
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) flat.push_back(win.at(x, y));
    }
    out.push_back(std::move(flat));
  });
  return out;
}

class EngineEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineEquivalence, LosslessCompressedMatchesTraditionalEverywhere) {
  const std::size_t n = GetParam();
  const auto img = image::make_natural_image(48, 32, {.seed = n});
  const auto config = make_config(48, 32, n, 0);
  TraditionalEngine trad(config.spec);
  CompressedEngine comp(config);
  const auto wt = collect_windows(trad, img, n);
  const auto wc = collect_windows(comp, img, n);
  ASSERT_EQ(wt.size(), wc.size());
  for (std::size_t i = 0; i < wt.size(); ++i) ASSERT_EQ(wt[i], wc[i]) << "window #" << i;
}

INSTANTIATE_TEST_SUITE_P(WindowSizes, EngineEquivalence, ::testing::Values(2, 4, 8, 16));

TEST(StreamingEngine, TraditionalVisitsEveryValidPosition) {
  const auto img = image::make_natural_image(20, 14);
  TraditionalEngine engine({20, 14, 4});
  std::size_t count = 0;
  std::size_t max_r = 0, max_c = 0;
  engine.run(img, [&](std::size_t r, std::size_t c, const WindowView&) {
    ++count;
    max_r = std::max(max_r, r);
    max_c = std::max(max_c, c);
  });
  EXPECT_EQ(count, (20u - 4u + 1u) * (14u - 4u + 1u));
  EXPECT_EQ(max_r, 10u);
  EXPECT_EQ(max_c, 16u);
  EXPECT_EQ(engine.windows_emitted(), count);
}

TEST(StreamingEngine, TraditionalWindowsMatchImagePixels) {
  const auto img = image::make_natural_image(24, 18);
  TraditionalEngine engine({24, 18, 6});
  engine.run(img, [&](std::size_t r, std::size_t c, const WindowView& win) {
    for (std::size_t y = 0; y < 6; ++y) {
      for (std::size_t x = 0; x < 6; ++x) {
        ASSERT_EQ(win.at(x, y), img.at(c + x, r + y)) << r << "," << c;
      }
    }
  });
}

TEST(StreamingEngine, LosslessReconstructionIsExact) {
  const auto img = image::make_natural_image(40, 30);
  const image::ImageU8 out = roundtrip_image(img, make_config(40, 30, 8, 0));
  EXPECT_EQ(out, img);
}

TEST(StreamingEngine, LosslessReconstructionExactOnRandomImage) {
  const auto img = image::make_random_image(32, 24, 3);
  EXPECT_EQ(roundtrip_image(img, make_config(32, 24, 4, 0)), img);
}

TEST(StreamingEngine, LossyReconstructionErrorIsBounded) {
  const auto img = image::make_natural_image(64, 48);
  for (const int t : {2, 4, 6}) {
    const image::ImageU8 out = roundtrip_image(img, make_config(64, 48, 8, t));
    const double err = image::mse(img, out);
    EXPECT_GT(err, 0.0) << "t=" << t;
    // Drifted streaming error stays within a small multiple of the
    // single-pass threshold energy.
    EXPECT_LT(err, 16.0 * t * t) << "t=" << t;
  }
}

TEST(StreamingEngine, StatsRecordOneTransitionPerInteriorRow) {
  const auto img = image::make_natural_image(32, 20);
  CompressedEngine engine(make_config(32, 20, 4, 0));
  engine.run(img, [](std::size_t, std::size_t, const WindowView&) {});
  EXPECT_EQ(engine.stats().metrics.sum(EngineMetricIds::get().rows), 20u - 4u);
  EXPECT_GT(engine.stats().max_stream_bits(), 0u);
  EXPECT_GT(engine.stats().max_row_bits(), 0u);
  EXPECT_EQ(engine.stats().windows_emitted(), (32u - 4u + 1u) * (20u - 4u + 1u));
}

TEST(StreamingEngine, HigherThresholdShrinksBufferOccupancy) {
  const auto img = image::make_natural_image(64, 32);
  std::size_t prev = ~std::size_t{0};
  for (const int t : {0, 4, 10}) {
    CompressedEngine engine(make_config(64, 32, 8, t));
    engine.run(img, [](std::size_t, std::size_t, const WindowView&) {});
    EXPECT_LE(engine.stats().max_row_bits(), prev);
    prev = engine.stats().max_row_bits();
  }
}

TEST(StreamingEngine, RejectsMismatchedImage) {
  const auto img = image::make_natural_image(32, 32);
  TraditionalEngine trad({64, 32, 8});
  EXPECT_THROW(trad.run(img, [](std::size_t, std::size_t, const WindowView&) {}),
               std::invalid_argument);
  CompressedEngine comp(make_config(64, 32, 8));
  EXPECT_THROW(comp.run(img, [](std::size_t, std::size_t, const WindowView&) {}),
               std::invalid_argument);
}

TEST(StreamingEngine, MinimalGeometryWorks) {
  // Smallest legal configuration: window 2 on a tiny image.
  const auto img = image::make_natural_image(4, 2);
  const image::ImageU8 out = roundtrip_image(img, make_config(4, 2, 2, 0));
  EXPECT_EQ(out, img);
}

}  // namespace
}  // namespace swc::core
