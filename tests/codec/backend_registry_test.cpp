#include "codec/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
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

// FNV-1a over bytes; 64-bit words are folded in little-endian byte order.
class Digest {
 public:
  void bytes(const std::vector<std::uint8_t>& v) {
    for (const auto b : v) mix(b);
  }
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint8_t b) { h_ = (h_ ^ b) * 1099511628211ULL; }
  std::uint64_t h_ = 14695981039346656037ULL;
};

// Output-byte and BandTranscodeStats digests of one backend on one band at
// one threshold, folded over granularity x NBits policy x threshold_ll, with
// one scratch reused across every cell.
std::pair<std::uint64_t, std::uint64_t> lossy_digests(const CodecBackend& backend,
                                                      const std::vector<std::uint8_t>& band,
                                                      std::size_t n, std::size_t w,
                                                      int threshold) {
  const auto scratch = backend.make_scratch();
  Digest output, accounting;
  for (const auto granularity :
       {bitpack::NBitsGranularity::PerSubBandColumn, bitpack::NBitsGranularity::PerColumn,
        bitpack::NBitsGranularity::PerCoefficient}) {
    for (const auto policy :
         {bitpack::NBitsPolicy::PostThreshold, bitpack::NBitsPolicy::PreThreshold}) {
      for (const bool threshold_ll : {true, false}) {
        bitpack::ColumnCodecConfig codec;
        codec.threshold = threshold;
        codec.granularity = granularity;
        codec.nbits_policy = policy;
        codec.threshold_ll = threshold_ll;
        std::vector<std::uint8_t> out(band.size());
        telemetry::Snapshot metrics;
        BandTranscodeStats stats;
        backend.transcode_band(band.data(), n, w, codec, *scratch, out.data(), metrics, stats);
        output.bytes(out);
        accounting.word(stats.payload_bits);
        accounting.word(stats.management_bits);
        accounting.word(stats.columns);
        for (const auto bits : stats.stream_bits) accounting.word(bits);
      }
    }
  }
  return {output.value(), accounting.value()};
}

// A band of only 0 and 255: the widest residuals and coefficients a byte
// band can produce.
std::vector<std::uint8_t> make_extreme_band(std::size_t n, std::size_t w) {
  std::vector<std::uint8_t> band(n * w);
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (auto& px : band) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    px = (state >> 63) != 0 ? 255 : 0;
  }
  return band;
}

TEST(BackendRegistry, BuiltinsAreRegistered) {
  const auto names = BackendRegistry::names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
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
  // Differential gate: the haar backend reconstructs from the coder's
  // thresholded columns instead of unpacking them, so it must stay
  // bit-identical (output bytes and bit accounting) to the pipeline that
  // packs every column and unpacks it with ColumnDecoder, reconstructed here
  // inline from the wavelet/bitpack primitives.
  const std::size_t n = 8;
  const std::size_t w = 64;
  const auto backend = BackendRegistry::make("haar");
  for (const auto granularity :
       {bitpack::NBitsGranularity::PerSubBandColumn, bitpack::NBitsGranularity::PerColumn,
        bitpack::NBitsGranularity::PerCoefficient}) {
    for (const auto policy :
         {bitpack::NBitsPolicy::PostThreshold, bitpack::NBitsPolicy::PreThreshold}) {
      for (const bool threshold_ll : {true, false}) {
        for (const int t : {0, 2, 5}) {
          bitpack::ColumnCodecConfig codec;
          codec.threshold = t;
          codec.granularity = granularity;
          codec.nbits_policy = policy;
          codec.threshold_ll = threshold_ll;
          const auto band = make_band(n, w, 17 + static_cast<std::uint64_t>(t));

          // Inline pipeline: decompose -> pack + unpack per column -> recompose.
          wavelet::BandPlanes fwd, dec;
          wavelet::BandScratch scratch;
          wavelet::decompose_band_into(band.data(), n, w, fwd, scratch);
          dec.resize(n / 2, w / 2);
          bitpack::ColumnEncoder encoder;
          bitpack::ColumnDecoder decoder;
          bitpack::EncodedColumn enc;
          BandTranscodeStats want;
          want.reset(n);
          const auto account = [&] {
            want.payload_bits += enc.payload_bit_count;
            want.management_bits += enc.management_bits();
            bitpack::for_each_payload_width(enc, codec, [&](std::size_t i, int width) {
              want.stream_bits[i] += static_cast<std::size_t>(width);
            });
            ++want.columns;
          };
          std::vector<std::uint8_t> even(n), odd(n), col;
          for (std::size_t j = 0; j < w / 2; ++j) {
            wavelet::gather_column_pair(fwd, j, even.data(), odd.data());
            encoder.encode(even, codec, true, enc);
            account();
            decoder.decode(enc, n, codec, col);
            std::copy(col.begin(), col.end(), even.begin());
            encoder.encode(odd, codec, false, enc);
            account();
            decoder.decode(enc, n, codec, col);
            wavelet::scatter_column_pair(dec, j, even.data(), col.data());
          }
          std::vector<std::uint8_t> expected(band.size());
          wavelet::recompose_band_into(dec, n, w, expected.data(), scratch);

          BandTranscodeStats got_stats;
          const auto got = transcode(*backend, band, n, w, codec, &got_stats);
          const auto label = "granularity=" + std::to_string(static_cast<int>(granularity)) +
                             " policy=" + std::to_string(static_cast<int>(policy)) +
                             " threshold_ll=" + std::to_string(threshold_ll) +
                             " t=" + std::to_string(t);
          EXPECT_EQ(got, expected) << label;
          EXPECT_EQ(got_stats.payload_bits, want.payload_bits) << label;
          EXPECT_EQ(got_stats.management_bits, want.management_bits) << label;
          EXPECT_EQ(got_stats.columns, want.columns) << label;
          EXPECT_EQ(got_stats.stream_bits, want.stream_bits) << label;
        }
      }
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

TEST(BackendRegistry, LossyLegallAndMicroshiftMatchPinnedDigests) {
  // legall53 and microshift have no inline lossy oracle. These digests were
  // recorded from the implementation that unpacked every packed column with
  // ColumnDecoder, so a change to either backend's output bytes or bit
  // accounting at T > 0 shows here.
  struct Pinned {
    const char* backend;
    bool extreme;
    int threshold;
    std::uint64_t output;
    std::uint64_t accounting;
  };
  static constexpr Pinned kPinned[] = {
      {"legall53", false, 1, 0x7e6697bad1522f2dULL, 0x6111379a8d2ec71dULL},
      {"legall53", false, 2, 0xe84683c76f3d7d95ULL, 0x845ac78431729e59ULL},
      {"legall53", false, 5, 0xc02855bc6935418dULL, 0x5dce178dd3b0ce79ULL},
      {"legall53", true, 1, 0x45775004a9461a0dULL, 0x5d85b9c0c677d52dULL},
      {"legall53", true, 2, 0xa2bc977476a1762dULL, 0x1694b0cd1d2c5e5dULL},
      {"legall53", true, 5, 0x7cff9c4e09faefc1ULL, 0xe6feb07ba5de3039ULL},
      {"microshift", false, 1, 0xe929ca77ed7a2425ULL, 0xccf87660d24b035dULL},
      {"microshift", false, 2, 0x54ad136c0f294725ULL, 0xf0acb71fb63110ddULL},
      {"microshift", false, 5, 0x3278ae8a12a5c925ULL, 0xa9268de0802b2ad5ULL},
      {"microshift", true, 1, 0x85770cc630ca2325ULL, 0x8ebd45b6c4c97b95ULL},
      {"microshift", true, 2, 0x82ea772f5de0ff25ULL, 0x90429401c4a6a5e5ULL},
      {"microshift", true, 5, 0xb94149b56a511b25ULL, 0x164a4e250f5fd61dULL},
  };
  const std::size_t n = 8;
  const std::size_t w = 96;
  const auto natural = make_band(n, w, 23);
  const auto extreme = make_extreme_band(n, w);
  for (const auto& pin : kPinned) {
    const auto backend = BackendRegistry::make(pin.backend);
    const auto [output, accounting] =
        lossy_digests(*backend, pin.extreme ? extreme : natural, n, w, pin.threshold);
    const auto label = std::string(pin.backend) + (pin.extreme ? " extreme" : " natural") +
                       " t=" + std::to_string(pin.threshold);
    EXPECT_EQ(output, pin.output) << label;
    EXPECT_EQ(accounting, pin.accounting) << label;
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
  EXPECT_EQ(codec_ids.recompose, core_ids.stage_recompose);
}

}  // namespace
}  // namespace swc::codec
