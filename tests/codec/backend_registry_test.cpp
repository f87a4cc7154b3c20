#include "codec/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
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

// Calls fn(codec, label) for every granularity x NBits policy x threshold_ll
// cell at each threshold in `thresholds`.
template <typename Fn>
void for_each_codec(std::initializer_list<int> thresholds, Fn&& fn) {
  for (const auto granularity :
       {bitpack::NBitsGranularity::PerSubBandColumn, bitpack::NBitsGranularity::PerColumn,
        bitpack::NBitsGranularity::PerCoefficient}) {
    for (const auto policy :
         {bitpack::NBitsPolicy::PostThreshold, bitpack::NBitsPolicy::PreThreshold}) {
      for (const bool threshold_ll : {true, false}) {
        for (const int t : thresholds) {
          bitpack::ColumnCodecConfig codec;
          codec.threshold = t;
          codec.granularity = granularity;
          codec.nbits_policy = policy;
          codec.threshold_ll = threshold_ll;
          const auto label = "granularity=" + std::to_string(static_cast<int>(granularity)) +
                             " policy=" + std::to_string(static_cast<int>(policy)) +
                             " threshold_ll=" + std::to_string(threshold_ll) +
                             " t=" + std::to_string(t);
          fn(codec, label);
        }
      }
    }
  }
}

// The legacy column path: packs each column with ColumnEncoder, books it
// into `want` as a backend books a column, and returns what ColumnDecoder
// unpacks from it.
class PackUnpack {
 public:
  PackUnpack(std::size_t n, const bitpack::ColumnCodecConfig& codec) : n_(n), codec_(codec) {
    want.reset(n);
  }

  std::vector<std::uint8_t> code(const std::vector<std::uint8_t>& column, bool is_even) {
    encoder_.encode(column, codec_, is_even, enc_);
    want.payload_bits += enc_.payload_bit_count;
    want.management_bits += enc_.management_bits();
    bitpack::for_each_payload_width(enc_, codec_, [&](std::size_t i, int width) {
      want.stream_bits[i] += static_cast<std::size_t>(width);
    });
    ++want.columns;
    std::vector<std::uint8_t> decoded;
    decoder_.decode(enc_, n_, codec_, decoded);
    return decoded;
  }

  BandTranscodeStats want;

 private:
  std::size_t n_;
  bitpack::ColumnCodecConfig codec_;
  bitpack::ColumnEncoder encoder_;
  bitpack::ColumnDecoder decoder_;
  bitpack::EncodedColumn enc_;
};

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

// Transcodes `band` and expects the reference output bytes and every
// BandTranscodeStats field.
void expect_transcodes_to(const CodecBackend& backend, const std::vector<std::uint8_t>& band,
                          std::size_t n, std::size_t w, const bitpack::ColumnCodecConfig& codec,
                          const std::vector<std::uint8_t>& expected,
                          const BandTranscodeStats& want, const std::string& label) {
  BandTranscodeStats got_stats;
  const auto got = transcode(backend, band, n, w, codec, &got_stats);
  EXPECT_EQ(got, expected) << label;
  EXPECT_EQ(got_stats.payload_bits, want.payload_bits) << label;
  EXPECT_EQ(got_stats.management_bits, want.management_bits) << label;
  EXPECT_EQ(got_stats.columns, want.columns) << label;
  EXPECT_EQ(got_stats.stream_bits, want.stream_bits) << label;
}

// Plain-loop wrap-8 LeGall 5/3 lifting, the reference for the legall53
// backend:
//   d[i] = x[2i+1] - floor((x[2i] + x[2i+2]) / 2)        (predict)
//   s[i] = x[2i]   + floor((d[i-1] + d[i] + 2) / 4)      (update)
// with symmetric extension (x[2m] = x[2m-2], d[-1] = d[0]) and every result
// wrapped to a byte. Details enter the update as int8. The predict reads the
// even samples as int8 when `signed_lane` is set: the vertical pass of a
// horizontal-detail column, whose bytes are two's-complement.
int lane(std::uint8_t v, bool signed_lane) {
  return signed_lane ? static_cast<std::int8_t>(v) : v;
}

std::uint8_t wrap8(int v) { return static_cast<std::uint8_t>(v & 0xFF); }

// Lifts the 2m samples p[0], p[stride], ... in place into [s | d].
void lift53_forward(std::uint8_t* p, std::size_t stride, std::size_t m, bool signed_lane) {
  const auto x = [&](std::size_t k) -> std::uint8_t& { return p[k * stride]; };
  std::vector<std::uint8_t> s(m), d(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t next = i + 1 < m ? i + 1 : i;
    d[i] = wrap8(x(2 * i + 1) -
                 ((lane(x(2 * i), signed_lane) + lane(x(2 * next), signed_lane)) >> 1));
  }
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t prev = i == 0 ? 0 : i - 1;
    s[i] = wrap8(x(2 * i) + ((lane(d[prev], true) + lane(d[i], true) + 2) >> 2));
  }
  for (std::size_t i = 0; i < m; ++i) {
    x(i) = s[i];
    x(m + i) = d[i];
  }
}

// Exact inverse of lift53_forward.
void lift53_inverse(std::uint8_t* p, std::size_t stride, std::size_t m, bool signed_lane) {
  const auto y = [&](std::size_t k) { return p[k * stride]; };
  std::vector<std::uint8_t> x(2 * m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t prev = i == 0 ? 0 : i - 1;
    x[2 * i] = wrap8(y(i) - ((lane(y(m + prev), true) + lane(y(m + i), true) + 2) >> 2));
  }
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t next = i + 1 < m ? i + 1 : i;
    x[2 * i + 1] =
        wrap8(y(m + i) + ((lane(x[2 * i], signed_lane) + lane(x[2 * next], signed_lane)) >> 1));
  }
  for (std::size_t k = 0; k < 2 * m; ++k) p[k * stride] = x[k];
}

// Levels recurse on the LL region while both sides stay even, up to 3.
int loop53_levels(std::size_t n, std::size_t w) {
  int levels = 0;
  for (; levels < 3; ++levels) {
    const std::size_t cn = n >> levels;
    const std::size_t cw = w >> levels;
    if (cn < 2 || cw < 2 || cn % 2 != 0 || cw % 2 != 0) break;
  }
  return levels;
}

// One level over the top-left cn x cw region of an n x w band: every row,
// then every column. The row pass leaves each row as [low-pass | detail].
void loop53_forward_level(std::vector<std::uint8_t>& band, std::size_t w, std::size_t cn,
                            std::size_t cw) {
  for (std::size_t y = 0; y < cn; ++y) lift53_forward(&band[y * w], 1, cw / 2, false);
  for (std::size_t x = 0; x < cw; ++x) lift53_forward(&band[x], w, cn / 2, x >= cw / 2);
}

void loop53_inverse_level(std::vector<std::uint8_t>& band, std::size_t w, std::size_t cn,
                            std::size_t cw) {
  for (std::size_t x = 0; x < cw; ++x) lift53_inverse(&band[x], w, cn / 2, x >= cw / 2);
  for (std::size_t y = 0; y < cn; ++y) lift53_inverse(&band[y * w], 1, cw / 2, false);
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
  for_each_codec({threshold}, [&](const bitpack::ColumnCodecConfig& codec, const std::string&) {
    std::vector<std::uint8_t> out(band.size());
    telemetry::Snapshot metrics;
    BandTranscodeStats stats;
    backend.transcode_band(band.data(), n, w, codec, *scratch, out.data(), metrics, stats);
    output.bytes(out);
    accounting.word(stats.payload_bits);
    accounting.word(stats.management_bits);
    accounting.word(stats.columns);
    for (const auto bits : stats.stream_bits) accounting.word(bits);
  });
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
  for_each_codec({0, 2, 5}, [&](const bitpack::ColumnCodecConfig& codec,
                                const std::string& label) {
    const auto band = make_band(n, w, 17 + static_cast<std::uint64_t>(codec.threshold));

    // Inline pipeline: decompose -> pack + unpack per column -> recompose.
    wavelet::BandPlanes fwd, dec;
    wavelet::BandScratch scratch;
    wavelet::decompose_band_into(band.data(), n, w, fwd, scratch);
    dec.resize(n / 2, w / 2);
    PackUnpack packer(n, codec);
    std::vector<std::uint8_t> even(n), odd(n);
    for (std::size_t j = 0; j < w / 2; ++j) {
      wavelet::gather_column_pair(fwd, j, even.data(), odd.data());
      even = packer.code(even, true);
      odd = packer.code(odd, false);
      wavelet::scatter_column_pair(dec, j, even.data(), odd.data());
    }
    std::vector<std::uint8_t> expected(band.size());
    wavelet::recompose_band_into(dec, n, w, expected.data(), scratch);

    expect_transcodes_to(*backend, band, n, w, codec, expected, packer.want, label);
  });
}

TEST(BackendRegistry, Legall53BackendMatchesInlineLoopReference) {
  // Differential gate for the legall53 backend: its batched lifting, column
  // step and inverse must match the plain-loop 5/3 above, each column packed
  // and unpacked by ColumnEncoder/ColumnDecoder, at every codec cell. The
  // 8 x 96 band takes the full 3 levels. The all-0/255 band puts negative
  // and positive details side by side, where reading a detail byte as
  // unsigned moves the vertical prediction by about 128.
  const std::size_t n = 8;
  const std::size_t w = 96;
  const int levels = loop53_levels(n, w);
  ASSERT_EQ(levels, 3);
  const auto backend = BackendRegistry::make("legall53");
  for (const bool extreme : {false, true}) {
    const auto band = extreme ? make_extreme_band(n, w) : make_band(n, w, 23);
    for_each_codec({0, 1, 2, 5}, [&](const bitpack::ColumnCodecConfig& codec,
                                     const std::string& cell) {
      auto coeffs = band;
      for (int level = 0; level < levels; ++level) {
        loop53_forward_level(coeffs, w, n >> level, w >> level);
      }
      PackUnpack packer(n, codec);
      std::vector<std::uint8_t> column(n);
      for (std::size_t x = 0; x < w; ++x) {
        for (std::size_t y = 0; y < n; ++y) column[y] = coeffs[y * w + x];
        column = packer.code(column, /*is_even=*/x < (w >> levels));
        for (std::size_t y = 0; y < n; ++y) coeffs[y * w + x] = column[y];
      }
      for (int level = levels - 1; level >= 0; --level) {
        loop53_inverse_level(coeffs, w, n >> level, w >> level);
      }
      expect_transcodes_to(*backend, band, n, w, codec, coeffs, packer.want,
                           (extreme ? "extreme " : "natural ") + cell);
    });
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

TEST(BackendRegistry, LossyMicroshiftMatchesPinnedDigests) {
  // microshift has no inline lossy oracle. These digests were recorded from
  // the implementation that unpacked every packed column with ColumnDecoder,
  // so a change to its output bytes or bit accounting at T > 0 shows here.
  struct Pinned {
    bool extreme;
    int threshold;
    std::uint64_t output;
    std::uint64_t accounting;
  };
  static constexpr Pinned kPinned[] = {
      {false, 1, 0xe929ca77ed7a2425ULL, 0xccf87660d24b035dULL},
      {false, 2, 0x54ad136c0f294725ULL, 0xf0acb71fb63110ddULL},
      {false, 5, 0x3278ae8a12a5c925ULL, 0xa9268de0802b2ad5ULL},
      {true, 1, 0x85770cc630ca2325ULL, 0x8ebd45b6c4c97b95ULL},
      {true, 2, 0x82ea772f5de0ff25ULL, 0x90429401c4a6a5e5ULL},
      {true, 5, 0xb94149b56a511b25ULL, 0x164a4e250f5fd61dULL},
  };
  const std::size_t n = 8;
  const std::size_t w = 96;
  const auto natural = make_band(n, w, 23);
  const auto extreme = make_extreme_band(n, w);
  const auto backend = BackendRegistry::make("microshift");
  for (const auto& pin : kPinned) {
    const auto [output, accounting] =
        lossy_digests(*backend, pin.extreme ? extreme : natural, n, w, pin.threshold);
    const auto label =
        std::string(pin.extreme ? "extreme" : "natural") + " t=" + std::to_string(pin.threshold);
    EXPECT_EQ(output, pin.output) << label;
    EXPECT_EQ(accounting, pin.accounting) << label;
  }
}

TEST(BackendRegistry, AllBackendsAreLosslessAtThresholdZero) {
  // Natural and all-0/255 bands at sizes where legall53's level recursion
  // stops at 1, 2, 3 and 3 levels (odd half-width, odd quarter-width, the
  // cap at 8 rows, the cap with levels to spare).
  const std::pair<std::size_t, std::size_t> kSizes[] = {{4, 6}, {8, 12}, {8, 96}, {16, 64}};
  for (const auto& [n, w] : kSizes) {
    for (const bool extreme : {false, true}) {
      const auto band = extreme ? make_extreme_band(n, w) : make_band(n, w, 99);
      for (const auto& name : BackendRegistry::names()) {
        const auto backend = BackendRegistry::make(name);
        bitpack::ColumnCodecConfig codec;  // threshold 0 = lossless
        BandTranscodeStats stats;
        const auto out = transcode(*backend, band, n, w, codec, &stats);
        const auto label = name + " " + std::to_string(n) + "x" + std::to_string(w) +
                           (extreme ? " extreme" : " natural");
        EXPECT_EQ(out, band) << label << " is not lossless at T=0";
        EXPECT_GT(stats.payload_bits + stats.management_bits, 0u) << label;
        EXPECT_GT(stats.columns, 0u) << label;
        EXPECT_EQ(stats.stream_bits.size(), n) << label;
      }
    }
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
