#include "core/accounting.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bitpack/column_codec.hpp"
#include "bitpack/nbits.hpp"
#include "image/synthetic.hpp"
#include "wavelet/column_decomposer.hpp"

namespace swc::core {
namespace {

EngineConfig make_config(std::size_t w, std::size_t h, std::size_t n, int threshold = 0) {
  EngineConfig config;
  config.spec = {w, h, n};
  config.codec.threshold = threshold;
  return config;
}

TEST(Accounting, BandCostComponentsAreConsistent) {
  const auto img = image::make_natural_image(128, 64);
  const auto config = make_config(128, 64, 8);
  const BandCost cost = compute_band_cost(img, 0, config);
  // Stream bits partition the payload.
  std::size_t stream_total = 0;
  for (const auto bits : cost.stream_bits) stream_total += bits;
  EXPECT_EQ(stream_total, cost.payload_total());
  // Management bits follow the closed-form Section IV-C expressions over the
  // buffered (W - N) columns.
  EXPECT_EQ(cost.nbits_bits, config.spec.nbits_management_bits());
  EXPECT_EQ(cost.bitmap_bits, config.spec.bitmap_management_bits());
  EXPECT_EQ(cost.stream_bits.size(), config.spec.window);
}

TEST(Accounting, FlatImageCompressesToManagementOnly) {
  const auto img = image::make_flat_image(64, 32, 0);
  const auto config = make_config(64, 32, 8);
  const BandCost cost = compute_band_cost(img, 0, config);
  EXPECT_EQ(cost.payload_total(), 0u);
  EXPECT_EQ(cost.total_bits(), cost.management_total());
}

TEST(Accounting, NaturalImageSavesMemoryLosslessly) {
  const auto img = image::make_natural_image(256, 128);
  const auto config = make_config(256, 128, 16);
  const FrameCost cost = compute_frame_cost(img, config);
  const double saving = memory_saving_percent(cost, config.spec);
  EXPECT_GT(saving, 10.0);  // paper: 25-70% lossless; synthetic set is in-family
  EXPECT_LT(saving, 90.0);
}

TEST(Accounting, RandomImageBarelyCompresses) {
  const auto img = image::make_random_image(256, 128, 17);
  const auto config = make_config(256, 128, 16);
  const double saving = memory_saving_percent(compute_frame_cost(img, config), config.spec);
  EXPECT_LT(saving, 5.0);  // the paper's "bad frames" scenario
}

TEST(Accounting, HigherThresholdNeverCostsMore) {
  const auto img = image::make_natural_image(128, 64);
  std::size_t prev = ~std::size_t{0};
  for (const int t : {0, 2, 4, 6}) {
    const auto config = make_config(128, 64, 8, t);
    const FrameCost cost = compute_frame_cost(img, config);
    EXPECT_LE(cost.worst_band.total_bits(), prev) << "t=" << t;
    prev = cost.worst_band.total_bits();
  }
}

TEST(Accounting, WorstStreamBoundsAnySingleStream) {
  const auto img = image::make_natural_image(128, 64);
  const auto config = make_config(128, 64, 8);
  const FrameCost frame = compute_frame_cost(img, config, 1);
  EXPECT_GE(frame.worst_stream_bits, frame.worst_band.max_stream_bits());
  EXPECT_GT(frame.worst_stream_bits, 0u);
}

TEST(Accounting, FrameCostCoversAllBandsAtStrideOne) {
  const auto img = image::make_natural_image(64, 40);
  const auto config = make_config(64, 40, 8);
  const FrameCost frame = compute_frame_cost(img, config, 1);
  EXPECT_EQ(frame.bands_evaluated, 40u - 8u + 1u);
  EXPECT_GT(frame.mean_total_bits, 0.0);
  EXPECT_GE(static_cast<double>(frame.worst_band.total_bits()), frame.mean_total_bits);
}

TEST(Accounting, StrideZeroAutoSelectsHalfWindow) {
  const auto img = image::make_natural_image(64, 64);
  const auto config = make_config(64, 64, 16);
  const FrameCost frame = compute_frame_cost(img, config, 0);
  // last band = 48, stride 8 -> bands 0,8,...,48 = 7 evaluations.
  EXPECT_EQ(frame.bands_evaluated, 7u);
}

TEST(Accounting, BandOutOfRangeThrows) {
  const auto img = image::make_natural_image(64, 32);
  const auto config = make_config(64, 32, 8);
  EXPECT_THROW((void)compute_band_cost(img, 25, config), std::invalid_argument);
  EXPECT_NO_THROW((void)compute_band_cost(img, 24, config));
}

TEST(Accounting, ImageSpecMismatchThrows) {
  // The band walk reads spec.image_width pixels per row: a narrower image
  // would be read past its end, and a wider or taller one measured as if it
  // were a different frame.
  const auto config = make_config(128, 32, 8);
  const std::vector<image::ImageU8> mismatched = {image::make_natural_image(64, 32),
                                                  image::make_natural_image(256, 32),
                                                  image::make_natural_image(128, 40)};
  for (const auto& img : mismatched) {
    const auto label = std::to_string(img.width()) + "x" + std::to_string(img.height());
    EXPECT_THROW((void)compute_band_cost(img, 0, config), std::invalid_argument) << label;
    EXPECT_THROW((void)compute_frame_cost(img, config), std::invalid_argument) << label;
    EXPECT_THROW((void)trace_buffer_occupancy(img, config), std::invalid_argument) << label;
    EXPECT_THROW((void)summarize_savings({&img, 1}, config), std::invalid_argument) << label;
  }
  EXPECT_NO_THROW((void)compute_band_cost(image::make_natural_image(128, 32), 0, config));
}

TEST(Accounting, SummaryStatisticsAreCoherent) {
  const auto images = image::make_places_like_set(64, 64, 6);
  const auto config = make_config(64, 64, 8);
  const SavingsSummary s = summarize_savings(images, config);
  ASSERT_EQ(s.per_image.size(), 6u);
  EXPECT_LE(s.min, s.mean);
  EXPECT_GE(s.max, s.mean);
  EXPECT_GE(s.ci90_halfwidth, 0.0);
}

TEST(Accounting, SummaryRejectsEmptySet) {
  const auto config = make_config(64, 64, 8);
  EXPECT_THROW((void)summarize_savings({}, config), std::invalid_argument);
}

TEST(Accounting, TraceCoversEveryBandRow) {
  const auto img = image::make_natural_image(64, 40);
  const auto config = make_config(64, 40, 8);
  const auto trace = trace_buffer_occupancy(img, config, 1);
  ASSERT_EQ(trace.size(), 33u);
  EXPECT_EQ(trace.front().band_row, 0u);
  EXPECT_EQ(trace.back().band_row, 32u);
  for (const auto& pt : trace) {
    const std::size_t band_sum = pt.band_bits[0] + pt.band_bits[1] + pt.band_bits[2] + pt.band_bits[3];
    EXPECT_EQ(pt.total_bits, band_sum + pt.management_bits);
  }
}

TEST(Accounting, LLBandDominatesOnNaturalImages) {
  // Paper Fig. 3: the LL sub-band needs roughly twice the bits of each
  // detail sub-band.
  const auto img = image::make_natural_image(128, 128);
  const auto config = make_config(128, 128, 64);
  const auto trace = trace_buffer_occupancy(img, config, 16);
  for (const auto& pt : trace) {
    const auto ll = pt.band_bits[static_cast<std::size_t>(wavelet::SubBand::LL)];
    for (const auto band :
         {wavelet::SubBand::LH, wavelet::SubBand::HL, wavelet::SubBand::HH}) {
      EXPECT_GT(ll, pt.band_bits[static_cast<std::size_t>(band)]);
    }
  }
}

TEST(Accounting, FastPathMatchesGenericCodecReference) {
  // compute_band_cost runs the engine's batched band transform; verify it
  // against a reference built from the per-column-pair decomposer and the
  // one-shot column codec, across thresholds and both NBits policies.
  const auto img = image::make_natural_image(96, 48, {.seed = 77});
  for (const int t : {0, 2, 6}) {
    for (const auto policy :
         {bitpack::NBitsPolicy::PostThreshold, bitpack::NBitsPolicy::PreThreshold}) {
      auto config = make_config(96, 48, 8, t);
      config.codec.nbits_policy = policy;
      const BandCost fast = compute_band_cost(img, 5, config);

      std::size_t ref_payload = 0;
      std::size_t ref_mgmt = 0;
      std::vector<std::uint8_t> c0(8), c1(8);
      for (std::size_t x = 0; x + 1 < config.spec.buffered_columns(); x += 2) {
        for (std::size_t y = 0; y < 8; ++y) {
          c0[y] = img.at(x, 5 + y);
          c1[y] = img.at(x + 1, 5 + y);
        }
        const auto pair = wavelet::decompose_column_pair(c0, c1);
        const auto enc_even = bitpack::encode_column(pair.even, config.codec, true);
        const auto enc_odd = bitpack::encode_column(pair.odd, config.codec, false);
        ref_payload += enc_even.payload_bit_count + enc_odd.payload_bit_count;
        ref_mgmt += enc_even.management_bits() + enc_odd.management_bits();
      }
      EXPECT_EQ(fast.payload_total(), ref_payload) << "t=" << t;
      EXPECT_EQ(fast.management_total(), ref_mgmt) << "t=" << t;
    }
  }
}

TEST(Accounting, AccountedBitsMatchPackedBitsAcrossFullMatrix) {
  // Rate-controller input audit: the analytic accounting and the bits the
  // packer actually emits must agree bit-for-bit, or a closed-loop
  // controller fed by accounting would steer toward a phantom budget. The
  // sweep covers every granularity x policy x threshold_ll x threshold cell,
  // comparing compute_band_cost against the real ColumnEncoder's output
  // sizes for the same band.
  const auto img = image::make_natural_image(64, 40, {.seed = 123});
  for (const auto granularity :
       {bitpack::NBitsGranularity::PerSubBandColumn, bitpack::NBitsGranularity::PerColumn,
        bitpack::NBitsGranularity::PerCoefficient}) {
    for (const auto policy :
         {bitpack::NBitsPolicy::PostThreshold, bitpack::NBitsPolicy::PreThreshold}) {
      for (const bool threshold_ll : {true, false}) {
        for (const int t : {0, 2, 5}) {
          auto config = make_config(64, 40, 8, t);
          config.codec.granularity = granularity;
          config.codec.nbits_policy = policy;
          config.codec.threshold_ll = threshold_ll;
          const BandCost cost = compute_band_cost(img, 3, config);

          std::size_t packed_payload = 0;
          std::size_t packed_mgmt = 0;
          std::size_t packed_total = 0;
          // Per-coefficient oracle: a significant coefficient's field is
          // min_bits_u8 of its value, which the decoder returns unchanged.
          std::vector<std::size_t> value_widths(8, 0);
          std::vector<std::uint8_t> c0(8), c1(8);
          for (std::size_t x = 0; x + 1 < config.spec.buffered_columns(); x += 2) {
            for (std::size_t y = 0; y < 8; ++y) {
              c0[y] = img.at(x, 3 + y);
              c1[y] = img.at(x + 1, 3 + y);
            }
            const auto pair = wavelet::decompose_column_pair(c0, c1);
            const auto enc_even = bitpack::encode_column(pair.even, config.codec, true);
            const auto enc_odd = bitpack::encode_column(pair.odd, config.codec, false);
            packed_payload += enc_even.payload_bit_count + enc_odd.payload_bit_count;
            packed_mgmt += enc_even.management_bits() + enc_odd.management_bits();
            packed_total += enc_even.total_bits() + enc_odd.total_bits();
            for (const auto* enc : {&enc_even, &enc_odd}) {
              const auto decoded = bitpack::decode_column(*enc, 8, config.codec);
              for (std::size_t i = 0; i < 8; ++i) {
                if (enc->bitmap[i]) {
                  value_widths[i] += static_cast<std::size_t>(bitpack::min_bits_u8(decoded[i]));
                }
              }
            }
          }
          const auto label = [&] {
            return "granularity=" + std::to_string(static_cast<int>(granularity)) +
                   " policy=" + std::to_string(static_cast<int>(policy)) +
                   " threshold_ll=" + std::to_string(threshold_ll) + " t=" + std::to_string(t);
          }();
          EXPECT_EQ(cost.payload_total(), packed_payload) << label;
          EXPECT_EQ(cost.management_total(), packed_mgmt) << label;
          EXPECT_EQ(cost.total_bits(), packed_total) << label;
          // The per-stream and per-sub-band splits each partition the payload.
          std::size_t stream_sum = 0;
          for (const auto bits : cost.stream_bits) stream_sum += bits;
          const std::size_t band_sum = cost.payload_bits[0] + cost.payload_bits[1] +
                                       cost.payload_bits[2] + cost.payload_bits[3];
          EXPECT_EQ(stream_sum, packed_payload) << label;
          EXPECT_EQ(band_sum, packed_payload) << label;
          if (granularity == bitpack::NBitsGranularity::PerCoefficient) {
            EXPECT_EQ(cost.stream_bits, value_widths) << label;
          }
        }
      }
    }
  }
}

TEST(Accounting, SpecValidationRejectsBadGeometry) {
  SlidingWindowSpec spec{100, 100, 7};  // odd window
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {4, 4, 8};  // window larger than image
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {101, 100, 8};  // odd width
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {512, 512, 8};
  EXPECT_NO_THROW(spec.validate());
}

TEST(Accounting, ManagementFormulasMatchPaper) {
  // Section IV-C: NBits = 2x4x(W-N), BitMap = (W-N)xN.
  SlidingWindowSpec spec{512, 512, 8};
  EXPECT_EQ(spec.nbits_management_bits(), 2u * 4u * (512u - 8u));
  EXPECT_EQ(spec.bitmap_management_bits(), (512u - 8u) * 8u);
  EXPECT_EQ(spec.traditional_bits(), (512u - 8u) * 8u * 8u);
}

}  // namespace
}  // namespace swc::core
