#include "codec/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitpack/nbits.hpp"
#include "core/config.hpp"
#include "core/streaming_engine.hpp"
#include "image/metrics.hpp"
#include "image/synthetic.hpp"
#include "wavelet/band_transform.hpp"

namespace swc::codec {
namespace {

std::vector<std::uint8_t> make_band(std::size_t n, std::size_t w, std::uint64_t seed) {
  const auto img = image::make_natural_image(w, n, {.seed = seed});
  return {img.pixels().begin(), img.pixels().end()};
}

// Runs one band through a backend and returns the reconstruction.
std::vector<std::uint8_t> transcode(const CodecBackend& backend,
                                    const std::vector<std::uint8_t>& band, std::size_t n,
                                    std::size_t w, const bitpack::ColumnCodecConfig& codec,
                                    BandTranscodeStats* stats_out = nullptr) {
  auto scratch = backend.make_scratch();
  std::vector<std::uint8_t> out(band.size());
  telemetry::Snapshot metrics;
  BandTranscodeStats stats;
  backend.transcode_band(band.data(), n, w, codec, *scratch, out.data(), metrics, stats);
  if (stats_out != nullptr) *stats_out = stats;
  return out;
}

TEST(BackendRegistry, BuiltinsAreRegistered) {
  const auto names = BackendRegistry::names();
  for (const char* expected : {"haar", "legall53", "microshift"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expected) != names.end())
        << "missing builtin " << expected;
    EXPECT_TRUE(BackendRegistry::contains(expected));
  }
  EXPECT_FALSE(BackendRegistry::contains("no-such-codec"));
  EXPECT_THROW((void)BackendRegistry::make("no-such-codec"), std::invalid_argument);
}

TEST(BackendRegistry, MakeMemoizesOneInstancePerName) {
  const auto a = BackendRegistry::make("haar");
  const auto b = BackendRegistry::make("haar");
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->name(), "haar");
  EXPECT_NE(a.get(), BackendRegistry::make("legall53").get());
}

TEST(BackendRegistry, HaarBackendMatchesInlineLegacyPipeline) {
  // Differential gate for the refactor: the registry's haar backend must be
  // bit-identical to the pre-registry engine loop, reconstructed here inline
  // from the same wavelet/bitpack primitives it used.
  const std::size_t n = 8;
  const std::size_t w = 64;
  const auto backend = BackendRegistry::make("haar");
  for (const int t : {0, 2, 5}) {
    for (const auto policy :
         {bitpack::NBitsPolicy::PostThreshold, bitpack::NBitsPolicy::PreThreshold}) {
      bitpack::ColumnCodecConfig codec;
      codec.threshold = t;
      codec.nbits_policy = policy;
      const auto band = make_band(n, w, 17 + static_cast<std::uint64_t>(t));

      // Inline legacy loop: decompose -> per-pair column codec -> recompose.
      wavelet::BandPlanes fwd, dec;
      wavelet::BandScratch scratch;
      wavelet::decompose_band_into(band.data(), n, w, fwd, scratch);
      dec.resize(n / 2, w / 2);
      bitpack::ColumnEncoder encoder;
      bitpack::ColumnDecoder decoder;
      bitpack::EncodedColumn enc;
      std::vector<std::uint8_t> even(n), odd(n), col;
      for (std::size_t j = 0; j < w / 2; ++j) {
        wavelet::gather_column_pair(fwd, j, even.data(), odd.data());
        encoder.encode(even, codec, true, enc);
        decoder.decode(enc, n, codec, col);
        std::copy(col.begin(), col.end(), even.begin());
        encoder.encode(odd, codec, false, enc);
        decoder.decode(enc, n, codec, col);
        wavelet::scatter_column_pair(dec, j, even.data(), col.data());
      }
      std::vector<std::uint8_t> expected(band.size());
      wavelet::recompose_band_into(dec, n, w, expected.data(), scratch);

      const auto got = transcode(*backend, band, n, w, codec);
      EXPECT_EQ(got, expected) << "t=" << t;
    }
  }
}

TEST(BackendRegistry, HaarStreamBitsPartitionPayloadAcrossGranularities) {
  // The per-stream split sums to the payload at every granularity x policy.
  // At PerCoefficient each stream's bits must also equal the widths of that
  // row's decoded significant coefficients, summed over columns: an oracle
  // that does not depend on how the NBits fields are indexed.
  const std::size_t n = 8;
  const std::size_t w = 64;
  const auto backend = BackendRegistry::make("haar");
  const auto band = make_band(n, w, 41);
  for (const auto granularity :
       {bitpack::NBitsGranularity::PerSubBandColumn, bitpack::NBitsGranularity::PerColumn,
        bitpack::NBitsGranularity::PerCoefficient}) {
    for (const auto policy :
         {bitpack::NBitsPolicy::PostThreshold, bitpack::NBitsPolicy::PreThreshold}) {
      bitpack::ColumnCodecConfig codec;
      codec.threshold = 2;
      codec.granularity = granularity;
      codec.nbits_policy = policy;
      BandTranscodeStats stats;
      (void)transcode(*backend, band, n, w, codec, &stats);
      const auto label = "granularity=" + std::to_string(static_cast<int>(granularity)) +
                         " policy=" + std::to_string(static_cast<int>(policy));

      std::size_t stream_sum = 0;
      for (const auto bits : stats.stream_bits) stream_sum += bits;
      EXPECT_EQ(stream_sum, stats.payload_bits) << label;
      if (granularity != bitpack::NBitsGranularity::PerCoefficient) continue;

      wavelet::BandPlanes planes;
      wavelet::BandScratch scratch;
      wavelet::decompose_band_into(band.data(), n, w, planes, scratch);
      std::vector<std::size_t> value_widths(n, 0);
      std::vector<std::uint8_t> even(n), odd(n);
      for (std::size_t j = 0; j < w / 2; ++j) {
        wavelet::gather_column_pair(planes, j, even.data(), odd.data());
        for (const bool is_even : {true, false}) {
          const auto enc = bitpack::encode_column(is_even ? even : odd, codec, is_even);
          const auto decoded = bitpack::decode_column(enc, n, codec);
          for (std::size_t i = 0; i < n; ++i) {
            if (enc.bitmap[i]) {
              value_widths[i] += static_cast<std::size_t>(bitpack::min_bits_u8(decoded[i]));
            }
          }
        }
      }
      EXPECT_EQ(stats.stream_bits, value_widths) << label;
    }
  }
}

TEST(BackendRegistry, AllBackendsAreLosslessAtThresholdZero) {
  const std::size_t n = 8;
  const std::size_t w = 96;
  const auto band = make_band(n, w, 99);
  for (const auto& name : BackendRegistry::names()) {
    const auto backend = BackendRegistry::make(name);
    bitpack::ColumnCodecConfig codec;  // threshold 0 = lossless
    BandTranscodeStats stats;
    const auto out = transcode(*backend, band, n, w, codec, &stats);
    EXPECT_EQ(out, band) << name << " is not lossless at T=0";
    EXPECT_GT(stats.payload_bits + stats.management_bits, 0u) << name;
    EXPECT_GT(stats.columns, 0u) << name;
    EXPECT_EQ(stats.stream_bits.size(), n) << name;
  }
}

TEST(BackendRegistry, ThresholdReducesBitsOnEveryBackend) {
  const std::size_t n = 8;
  const std::size_t w = 96;
  const auto band = make_band(n, w, 7);
  for (const auto& name : BackendRegistry::names()) {
    const auto backend = BackendRegistry::make(name);
    bitpack::ColumnCodecConfig lossless;
    bitpack::ColumnCodecConfig lossy;
    lossy.threshold = 3;
    BandTranscodeStats at0, at3;
    (void)transcode(*backend, band, n, w, lossless, &at0);
    const auto out = transcode(*backend, band, n, w, lossy, &at3);
    EXPECT_LT(at3.payload_bits, at0.payload_bits) << name;
    // Lossy output stays in-range and close: mean absolute drift bounded.
    double abs_err = 0.0;
    for (std::size_t i = 0; i < band.size(); ++i) {
      abs_err += std::abs(static_cast<int>(band[i]) - static_cast<int>(out[i]));
    }
    EXPECT_LT(abs_err / static_cast<double>(band.size()), 16.0) << name;
  }
}

TEST(BackendRegistry, EngineRoundtripsLosslesslyOnEveryBackend) {
  // End to end through the engine: EngineConfig::backend selects the codec,
  // and at T=0 every backend must reproduce the input image exactly.
  const auto img = image::make_natural_image(48, 32, {.seed = 3});
  for (const auto& name : BackendRegistry::names()) {
    core::EngineConfig config;
    config.spec = {48, 32, 8};
    config.backend = name;
    const auto out = core::roundtrip_image(img, config);
    EXPECT_EQ(image::mse(img, out), 0.0) << name << " drifts at T=0";
  }
}

TEST(BackendRegistry, EngineRejectsUnknownBackend) {
  core::EngineConfig config;
  config.spec = {48, 32, 8};
  config.backend = "vaporware";
  EXPECT_THROW(core::CompressedEngine{config}, std::invalid_argument);
}

TEST(BackendRegistry, StageTimersShareEngineMetricIds) {
  // The codec layer interns the same engine.stage.* names core:: does; a
  // mismatch would silently zero RunStats::codec_ns() for registry backends.
  const auto& codec_ids = StageIds::get();
  const auto& core_ids = core::EngineMetricIds::get();
  EXPECT_EQ(codec_ids.decompose, core_ids.stage_decompose);
  EXPECT_EQ(codec_ids.encode, core_ids.stage_encode);
  EXPECT_EQ(codec_ids.decode, core_ids.stage_decode);
  EXPECT_EQ(codec_ids.recompose, core_ids.stage_recompose);
}

}  // namespace
}  // namespace swc::codec
