#include "bitpack/column_codec.hpp"

#include <gtest/gtest.h>

#include "bitpack/nbits.hpp"
#include "image/rng.hpp"

namespace swc::bitpack {
namespace {

std::vector<std::uint8_t> random_coeffs(std::size_t n, std::uint64_t seed, int spread = 255) {
  image::SplitMix64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& v : out) {
    v = static_cast<std::uint8_t>(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(2 * spread + 1))) - spread);
  }
  return out;
}

struct CodecCase {
  std::size_t n;
  NBitsGranularity granularity;
};

class LosslessRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::size_t, NBitsGranularity>> {};

TEST_P(LosslessRoundTrip, ThresholdZeroIsExact) {
  const auto [n, granularity] = GetParam();
  ColumnCodecConfig config;
  config.threshold = 0;
  config.granularity = granularity;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto coeffs = random_coeffs(n, seed);
    for (const bool even : {true, false}) {
      const EncodedColumn enc = encode_column(coeffs, config, even);
      EXPECT_EQ(decode_column(enc, n, config), coeffs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LosslessRoundTrip,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{4}, std::size_t{8},
                                         std::size_t{16}, std::size_t{64}, std::size_t{128}),
                       ::testing::Values(NBitsGranularity::PerSubBandColumn,
                                         NBitsGranularity::PerColumn,
                                         NBitsGranularity::PerCoefficient)));

class LossyRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LossyRoundTrip, DecodeEqualsThresholdedInput) {
  const int threshold = GetParam();
  ColumnCodecConfig config;
  config.threshold = threshold;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto coeffs = random_coeffs(16, seed, 12);
    for (const bool even : {true, false}) {
      const EncodedColumn enc = encode_column(coeffs, config, even);
      EXPECT_EQ(decode_column(enc, 16, config), apply_threshold(coeffs, config, even));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, LossyRoundTrip, ::testing::Values(1, 2, 4, 6, 16));

TEST(ColumnCodec, ManagementBitCountsPerGranularity) {
  const auto coeffs = random_coeffs(8, 3);
  ColumnCodecConfig config;
  config.granularity = NBitsGranularity::PerSubBandColumn;
  EXPECT_EQ(encode_column(coeffs, config).nbits_field_bits(), 8u);  // 2 x 4 bits
  config.granularity = NBitsGranularity::PerColumn;
  EXPECT_EQ(encode_column(coeffs, config).nbits_field_bits(), 4u);
  config.granularity = NBitsGranularity::PerCoefficient;
  const EncodedColumn enc = encode_column(coeffs, config);
  std::size_t nonzero = 0;
  for (const auto b : enc.bitmap) nonzero += b;
  EXPECT_EQ(enc.nbits_field_bits(), 4u * nonzero);
}

TEST(ColumnCodec, BitmapHasOneBitPerCoefficient) {
  const auto coeffs = random_coeffs(32, 9);
  const EncodedColumn enc = encode_column(coeffs, ColumnCodecConfig{});
  EXPECT_EQ(enc.bitmap_bits(), 32u);
}

TEST(ColumnCodec, PayloadEqualsNonZeroTimesWidth) {
  ColumnCodecConfig config;
  const std::vector<std::uint8_t> coeffs{13, 12, static_cast<std::uint8_t>(-9), 7,
                                         0,  0,  3,                             0};
  const EncodedColumn enc = encode_column(coeffs, config);
  // Top half {13,12,-9,7}: NBits 5, all four significant. Bottom {0,0,3,0}:
  // NBits 3, one significant.
  ASSERT_EQ(enc.nbits.size(), 2u);
  EXPECT_EQ(enc.nbits[0], 5);
  EXPECT_EQ(enc.nbits[1], 3);
  EXPECT_EQ(enc.payload_bit_count, 4u * 5u + 1u * 3u);
  EXPECT_EQ(enc.total_bits(), 8u + 8u + 23u);
}

TEST(ColumnCodec, AllZeroColumnHasEmptyPayload) {
  const std::vector<std::uint8_t> coeffs(16, 0);
  const EncodedColumn enc = encode_column(coeffs, ColumnCodecConfig{});
  EXPECT_EQ(enc.payload_bit_count, 0u);
  EXPECT_TRUE(enc.payload.empty());
  for (const auto b : enc.bitmap) EXPECT_EQ(b, 0);
  EXPECT_EQ(decode_column(enc, 16, ColumnCodecConfig{}), coeffs);
}

TEST(ColumnCodec, ThresholdZeroesSmallCoefficients) {
  ColumnCodecConfig config;
  config.threshold = 4;
  const std::vector<std::uint8_t> coeffs{3, static_cast<std::uint8_t>(-3), 4,
                                         static_cast<std::uint8_t>(-4)};
  const auto kept = apply_threshold(coeffs, config, /*column_is_even=*/false);
  EXPECT_EQ(kept[0], 0);
  EXPECT_EQ(kept[1], 0);
  EXPECT_EQ(kept[2], 4);
  EXPECT_EQ(kept[3], static_cast<std::uint8_t>(-4));
}

TEST(ColumnCodec, ThresholdLlFalseProtectsEvenColumnTopHalf) {
  ColumnCodecConfig config;
  config.threshold = 100;
  config.threshold_ll = false;
  const std::vector<std::uint8_t> coeffs{5, 6, 7, 8};  // top half = LL on even columns
  const auto kept_even = apply_threshold(coeffs, config, /*column_is_even=*/true);
  EXPECT_EQ(kept_even[0], 5);
  EXPECT_EQ(kept_even[1], 6);
  EXPECT_EQ(kept_even[2], 0);
  EXPECT_EQ(kept_even[3], 0);
  const auto kept_odd = apply_threshold(coeffs, config, /*column_is_even=*/false);
  for (const auto v : kept_odd) EXPECT_EQ(v, 0);
}

TEST(ColumnCodec, PreThresholdPolicyNeverSmallerPayload) {
  ColumnCodecConfig post;
  post.threshold = 6;
  post.nbits_policy = NBitsPolicy::PostThreshold;
  ColumnCodecConfig pre = post;
  pre.nbits_policy = NBitsPolicy::PreThreshold;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const auto coeffs = random_coeffs(16, seed, 20);
    const auto enc_post = encode_column(coeffs, post);
    const auto enc_pre = encode_column(coeffs, pre);
    EXPECT_GE(enc_pre.payload_bit_count, enc_post.payload_bit_count);
    // Both decode to the same thresholded values.
    EXPECT_EQ(decode_column(enc_pre, 16, pre), decode_column(enc_post, 16, post));
  }
}

TEST(ColumnCodec, HigherThresholdNeverIncreasesTotalBits) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto coeffs = random_coeffs(32, seed, 10);
    std::size_t prev = ~std::size_t{0};
    for (const int t : {0, 2, 4, 6, 10}) {
      ColumnCodecConfig config;
      config.threshold = t;
      const std::size_t bits = encode_column(coeffs, config).total_bits();
      EXPECT_LE(bits, prev) << "t=" << t;
      prev = bits;
    }
  }
}

TEST(ColumnCodec, PerCoefficientHonoursPreThresholdPolicy) {
  // Regression: the PerCoefficient branch used to size widths from the
  // thresholded values regardless of NBitsPolicy. Under PreThreshold the
  // Section V-B hardware computes NBits from the raw inputs before the
  // comparator resolves significance, so every coefficient carries a
  // row-indexed width field sized from the raw value — including the
  // sub-threshold ones the comparator zeroes.
  ColumnCodecConfig post;
  post.threshold = 4;
  post.granularity = NBitsGranularity::PerCoefficient;
  post.nbits_policy = NBitsPolicy::PostThreshold;
  ColumnCodecConfig pre = post;
  pre.nbits_policy = NBitsPolicy::PreThreshold;

  // -3 and 2 are sub-threshold (zeroed); 13 and -9 survive.
  const std::vector<std::uint8_t> coeffs{13, static_cast<std::uint8_t>(-3), 2,
                                         static_cast<std::uint8_t>(-9)};
  const EncodedColumn enc_post = encode_column(coeffs, post, /*column_is_even=*/false);
  const EncodedColumn enc_pre = encode_column(coeffs, pre, /*column_is_even=*/false);

  // Post: one field per non-zero (13 -> 5 bits, -9 -> 5 bits).
  ASSERT_EQ(enc_post.nbits.size(), 2u);
  EXPECT_EQ(enc_post.nbits[0], 5);
  EXPECT_EQ(enc_post.nbits[1], 5);

  // Pre: one field per coefficient, from the raw basis — the zeroed -3 and 2
  // keep their raw widths (3), which differ from their post-threshold width.
  ASSERT_EQ(enc_pre.nbits.size(), 4u);
  EXPECT_EQ(enc_pre.nbits[0], 5);
  EXPECT_EQ(enc_pre.nbits[1], 3);
  EXPECT_EQ(enc_pre.nbits[2], 3);
  EXPECT_EQ(enc_pre.nbits[3], 5);

  // Payload covers only the significant coefficients under both policies,
  // and both decode to the same thresholded column.
  EXPECT_EQ(enc_post.payload_bit_count, 10u);
  EXPECT_EQ(enc_pre.payload_bit_count, 10u);
  const auto expect = apply_threshold(coeffs, post, /*column_is_even=*/false);
  EXPECT_EQ(decode_column(enc_post, 4, post), expect);
  EXPECT_EQ(decode_column(enc_pre, 4, pre), expect);
}

TEST(ColumnCodec, FullGranularityPolicyThresholdMatrixRoundTrips) {
  // Every granularity x NBits policy x threshold x threshold_ll combination
  // must decode to exactly the thresholded input (and the original input at
  // threshold 0), on seeded random columns of several sizes. The encoder's
  // kept() column must equal the decoded one: the codec backends reconstruct
  // from kept() instead of unpacking.
  ColumnEncoder encoder;
  for (const auto granularity :
       {NBitsGranularity::PerSubBandColumn, NBitsGranularity::PerColumn,
        NBitsGranularity::PerCoefficient}) {
    for (const auto policy : {NBitsPolicy::PostThreshold, NBitsPolicy::PreThreshold}) {
      for (const int threshold : {0, 1, 3, 7, 16}) {
        for (const bool threshold_ll : {true, false}) {
          ColumnCodecConfig config;
          config.granularity = granularity;
          config.nbits_policy = policy;
          config.threshold = threshold;
          config.threshold_ll = threshold_ll;
          for (const std::size_t n : {std::size_t{4}, std::size_t{16}, std::size_t{64}}) {
            for (std::uint64_t seed = 0; seed < 5; ++seed) {
              const auto coeffs = random_coeffs(n, seed * 131 + n, 24);
              for (const bool even : {true, false}) {
                EncodedColumn enc;
                encoder.encode(coeffs, config, even, enc);
                const auto decoded = decode_column(enc, n, config);
                ASSERT_EQ(decoded, apply_threshold(coeffs, config, even))
                    << "g=" << static_cast<int>(granularity)
                    << " p=" << static_cast<int>(policy) << " t=" << threshold
                    << " ll=" << threshold_ll << " n=" << n << " seed=" << seed;
                const auto kept = encoder.kept();
                ASSERT_EQ(std::vector<std::uint8_t>(kept.begin(), kept.end()), decoded)
                    << "g=" << static_cast<int>(granularity)
                    << " p=" << static_cast<int>(policy) << " t=" << threshold
                    << " ll=" << threshold_ll << " n=" << n << " seed=" << seed;
                if (threshold == 0) {
                  ASSERT_EQ(decoded, coeffs);
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(ColumnCodec, ReusedEncoderDecoderMatchesOneShotFunctions) {
  // One ColumnEncoder/ColumnDecoder instance recycled across many columns
  // and configs must produce streams identical to the one-shot wrappers.
  ColumnEncoder encoder;
  ColumnDecoder decoder;
  EncodedColumn enc;
  std::vector<std::uint8_t> decoded;
  for (const auto granularity :
       {NBitsGranularity::PerSubBandColumn, NBitsGranularity::PerColumn,
        NBitsGranularity::PerCoefficient}) {
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
      ColumnCodecConfig config;
      config.granularity = granularity;
      config.threshold = static_cast<int>(seed % 5);
      const auto coeffs = random_coeffs(16, seed, 30);
      const bool even = seed % 2 == 0;

      encoder.encode(coeffs, config, even, enc);
      const EncodedColumn expected = encode_column(coeffs, config, even);
      ASSERT_EQ(enc.nbits, expected.nbits) << "seed=" << seed;
      ASSERT_EQ(enc.bitmap, expected.bitmap) << "seed=" << seed;
      ASSERT_EQ(enc.payload, expected.payload) << "seed=" << seed;
      ASSERT_EQ(enc.payload_bit_count, expected.payload_bit_count) << "seed=" << seed;

      decoder.decode(enc, 16, config, decoded);
      ASSERT_EQ(decoded, decode_column(expected, 16, config)) << "seed=" << seed;
    }
  }
}

TEST(ColumnCodec, RejectsOddOrEmptyColumns) {
  ColumnCodecConfig config;
  EXPECT_THROW((void)encode_column(std::vector<std::uint8_t>{1, 2, 3}, config),
               std::invalid_argument);
  EXPECT_THROW((void)encode_column(std::vector<std::uint8_t>{}, config), std::invalid_argument);
}

TEST(ColumnCodec, DecodeRejectsBitmapSizeMismatch) {
  const auto coeffs = random_coeffs(8, 1);
  ColumnCodecConfig config;
  const EncodedColumn enc = encode_column(coeffs, config);
  EXPECT_THROW((void)decode_column(enc, 16, config), std::invalid_argument);
}

TEST(ColumnCodec, WorstCaseRandomDataStillLossless) {
  // Random bytes have ~8-bit coefficients everywhere: compression fails but
  // correctness must hold (the paper's "bad frame" case).
  ColumnCodecConfig config;
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    const auto coeffs = random_coeffs(64, seed);
    const EncodedColumn enc = encode_column(coeffs, config);
    EXPECT_EQ(decode_column(enc, 64, config), coeffs);
    // Total bits may exceed raw 8 bits/coeff due to management overhead.
    EXPECT_GT(enc.total_bits(), 64u * 7u);
  }
}

}  // namespace
}  // namespace swc::bitpack
