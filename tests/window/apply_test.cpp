#include "window/apply.hpp"

#include <gtest/gtest.h>

#include "image/synthetic.hpp"
#include "kernels/kernels.hpp"

namespace swc::window {
namespace {

core::EngineConfig make_config(std::size_t w, std::size_t h, std::size_t n, int threshold = 0) {
  core::EngineConfig config;
  config.spec = {w, h, n};
  config.codec.threshold = threshold;
  return config;
}

TEST(Apply, OutputDimensionsAreValidPositionCount) {
  const auto [ow, oh] = output_dims({40, 30, 8});
  EXPECT_EQ(ow, 33u);
  EXPECT_EQ(oh, 23u);
}

TEST(Apply, TraditionalBoxMeanOnFlatImage) {
  const auto img = image::make_flat_image(16, 12, 80);
  const auto out = apply_traditional(img, 4, kernels::BoxMeanKernel{});
  EXPECT_EQ(out.width(), 13u);
  EXPECT_EQ(out.height(), 9u);
  for (const auto v : out.pixels()) EXPECT_EQ(v, 80);
}

TEST(Apply, AllFourEnginesAgreeLosslessly) {
  const auto img = image::make_natural_image(32, 24, {.seed = 21});
  const std::size_t n = 4;
  const auto config = make_config(32, 24, n, 0);
  const kernels::BoxMeanKernel kernel;

  const auto trad = apply_traditional(img, n, kernel);
  const auto comp = apply_compressed(img, config, kernel);
  const auto cyc_trad = apply_cycle_traditional(img, n, kernel);
  const auto cyc_comp = apply_cycle_compressed(img, config, kernel);

  EXPECT_EQ(trad, comp.output);
  EXPECT_EQ(trad, cyc_trad.output);
  EXPECT_EQ(trad, cyc_comp.output);
  EXPECT_EQ(cyc_trad.cycles, 32u * 24u);
  EXPECT_EQ(cyc_comp.cycles, 32u * 24u);
  EXPECT_FALSE(cyc_comp.memory_overflowed);
}

TEST(Apply, CompressedResultCarriesReconstructionAndStats) {
  const auto img = image::make_natural_image(32, 24);
  const auto result = apply_compressed(img, make_config(32, 24, 4, 0), kernels::BoxMeanKernel{});
  EXPECT_EQ(result.reconstructed, img);  // lossless
  EXPECT_GT(result.stats.metrics.sum(core::EngineMetricIds::get().rows), 0u);
}

TEST(Apply, LossyEnginesStillProduceFullOutputPlane) {
  const auto img = image::make_natural_image(32, 24);
  const auto result =
      apply_cycle_compressed(img, make_config(32, 24, 4, 4), kernels::BoxMeanKernel{});
  EXPECT_EQ(result.output.width(), 29u);
  EXPECT_EQ(result.output.height(), 21u);
  EXPECT_EQ(result.windows, 29u * 21u);
}

TEST(Apply, FloatKernelsPropagateOutputType) {
  const auto img = image::make_natural_image(24, 24);
  const kernels::GaussianKernel g(8, 1.5);
  const auto out = apply_traditional(img, 8, g);
  static_assert(std::is_same_v<std::decay_t<decltype(out.pixels()[0])>, float>);
  EXPECT_EQ(out.width(), 17u);
}

}  // namespace
}  // namespace swc::window
