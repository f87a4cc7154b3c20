// Codec hot-path throughput: MB/s of the word-parallel BitWriter/BitReader
// against the retained bit-serial reference (bitstream_ref.hpp), MB/s of the
// full column encode/decode at each NBits granularity using the reusable
// ColumnEncoder/ColumnDecoder, and MB/s of the wavelet+threshold+NBits stage
// on the per-pair scalar baseline vs the row-blocked batch-kernel path for
// every SIMD table the CPU supports. Results are printed as tables and
// written as the standardized BENCH_codec.json artifact so the speedup
// claims (>= 3x pack/unpack over bit-serial, >= 2x batched wavelet stage)
// are machine-checkable.
//
// SWC_BENCH_SECONDS scales the per-measurement time budget (default 0.2 s).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_common.hpp"
#include "bitpack/bitstream.hpp"
#include "bitpack/bitstream_ref.hpp"
#include "bitpack/column_codec.hpp"
#include "bitpack/nbits.hpp"
#include "codec/backend.hpp"
#include "core/streaming_engine.hpp"
#include "image/rng.hpp"
#include "simd/batch_kernels.hpp"
#include "wavelet/band_transform.hpp"
#include "wavelet/haar.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Field {
  std::uint32_t value;
  int nbits;
};

// Codec-realistic field mix: widths 1..8 (the hardware coefficient range).
std::vector<Field> make_fields(std::size_t count, std::uint64_t seed) {
  swc::image::SplitMix64 rng(seed);
  std::vector<Field> fields(count);
  std::size_t total_bits = 0;
  for (auto& f : fields) {
    f.nbits = 1 + static_cast<int>(rng.next_below(8));
    f.value = static_cast<std::uint32_t>(rng.next()) & ((1u << f.nbits) - 1u);
    total_bits += static_cast<std::size_t>(f.nbits);
  }
  (void)total_bits;
  return fields;
}

double time_budget_seconds() {
  if (const char* env = std::getenv("SWC_BENCH_SECONDS")) {
    const double s = std::strtod(env, nullptr);
    if (s > 0.0) return s;
  }
  return 0.2;
}

// Runs `body` (which processes `bytes_per_rep` bytes) repeatedly until the
// time budget is spent; returns MB/s.
template <typename Body>
double measure_mb_s(std::size_t bytes_per_rep, const Body& body) {
  const double budget = time_budget_seconds();
  // Warm up once (also primes allocator/caches).
  body();
  std::size_t reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    body();
    ++reps;
    elapsed = seconds_since(t0);
  } while (elapsed < budget);
  return static_cast<double>(reps * bytes_per_rep) / 1e6 / elapsed;
}

std::vector<std::uint8_t> random_coeffs(std::size_t n, std::uint64_t seed, int spread) {
  swc::image::SplitMix64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& v : out) {
    v = static_cast<std::uint8_t>(
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(2 * spread + 1))) - spread);
  }
  return out;
}

const char* granularity_name(swc::bitpack::NBitsGranularity g) {
  switch (g) {
    case swc::bitpack::NBitsGranularity::PerSubBandColumn:
      return "per_subband_column";
    case swc::bitpack::NBitsGranularity::PerColumn:
      return "per_column";
    case swc::bitpack::NBitsGranularity::PerCoefficient:
      return "per_coefficient";
  }
  return "?";
}

struct CodecPoint {
  std::string granularity;
  double encode_mb_s = 0.0;
  double decode_mb_s = 0.0;
};

// The PR-2-era wavelet+threshold+NBits stage: per column pair, strided
// gathers and one 2x2 HaarBlockU8 lifting per block, then scalar threshold
// and group_nbits per column. Kept inline here as the speedup baseline.
std::uint32_t wavelet_stage_per_pair_scalar(const std::vector<std::uint8_t>& band, std::size_t n,
                                            std::size_t w, int threshold,
                                            std::vector<std::uint8_t>& even,
                                            std::vector<std::uint8_t>& odd,
                                            std::vector<std::uint8_t>& kept) {
  const std::size_t half = n / 2;
  std::uint32_t sink = 0;
  even.resize(n);
  odd.resize(n);
  kept.resize(n);
  for (std::size_t x = 0; x + 1 < w; x += 2) {
    for (std::size_t i = 0; i < half; ++i) {
      const auto block = swc::wavelet::haar2d_forward_u8(
          band[(2 * i) * w + x], band[(2 * i) * w + x + 1], band[(2 * i + 1) * w + x],
          band[(2 * i + 1) * w + x + 1]);
      even[i] = block.ll;
      even[half + i] = block.lh;
      odd[i] = block.hl;
      odd[half + i] = block.hh;
    }
    for (const bool is_even : {true, false}) {
      const auto& col = is_even ? even : odd;
      const std::size_t start = is_even ? half : 0;  // LL protected on even columns
      for (std::size_t i = 0; i < start; ++i) kept[i] = col[i];
      for (std::size_t i = start; i < n; ++i) {
        kept[i] = swc::bitpack::is_significant(col[i], threshold) ? col[i] : std::uint8_t{0};
      }
      sink += static_cast<std::uint32_t>(
          swc::bitpack::group_nbits(std::span(kept).subspan(0, half)) +
          swc::bitpack::group_nbits(std::span(kept).subspan(half, half)));
    }
  }
  return sink;
}

// The same stage on the batch path: one row-blocked band decomposition, then
// per column pair a plane gather, batched threshold, and the Fig. 7 OR-bus
// NBits kernel.
std::uint32_t wavelet_stage_batch(const std::vector<std::uint8_t>& band, std::size_t n,
                                  std::size_t w, int threshold,
                                  const swc::simd::BatchKernelTable& table,
                                  swc::wavelet::BandPlanes& planes,
                                  swc::wavelet::BandScratch& scratch,
                                  std::vector<std::uint8_t>& even, std::vector<std::uint8_t>& odd,
                                  std::vector<std::uint8_t>& kept) {
  const std::size_t half = n / 2;
  std::uint32_t sink = 0;
  even.resize(n);
  odd.resize(n);
  kept.resize(n);
  swc::wavelet::decompose_band_into(band.data(), n, w, planes, scratch, table);
  for (std::size_t j = 0; 2 * j + 1 < w; ++j) {
    swc::wavelet::gather_column_pair(planes, j, even.data(), odd.data());
    for (const bool is_even : {true, false}) {
      const auto& col = is_even ? even : odd;
      if (is_even) {
        std::copy_n(col.data(), half, kept.data());  // LL protected
        table.threshold(col.data() + half, kept.data() + half, half, threshold);
      } else {
        table.threshold(col.data(), kept.data(), n, threshold);
      }
      sink += static_cast<std::uint32_t>(
          swc::bitpack::nbits_from_or_bus(table.nbits_or_bus(kept.data(), half)) +
          swc::bitpack::nbits_from_or_bus(table.nbits_or_bus(kept.data() + half, half)));
    }
  }
  return sink;
}

}  // namespace

int main() {
  using namespace swc;
  benchx::print_header("Codec throughput",
                       "word-parallel bitstream vs bit-serial reference; column codec MB/s");

  // --- Raw bitstream pack/unpack -----------------------------------------
  constexpr std::size_t kFields = 1u << 16;
  const auto fields = make_fields(kFields, 12345);
  std::size_t stream_bits = 0;
  for (const auto& f : fields) stream_bits += static_cast<std::size_t>(f.nbits);
  const std::size_t stream_bytes = (stream_bits + 7) / 8;

  bitpack::BitWriter word_writer;
  const double pack_word = measure_mb_s(stream_bytes, [&] {
    for (const auto& f : fields) word_writer.put(f.value, f.nbits);
    word_writer.reset();
  });
  const double pack_ref = measure_mb_s(stream_bytes, [&] {
    bitpack::ref::BitWriter writer;
    for (const auto& f : fields) writer.put(f.value, f.nbits);
    (void)writer.finish();
  });

  // Shared input stream for the unpack measurements (identical bytes from
  // either writer — asserted by the differential fuzz tests).
  for (const auto& f : fields) word_writer.put(f.value, f.nbits);
  const auto stream = word_writer.finish();

  volatile std::uint32_t sink = 0;  // keep the read loops observable
  const double unpack_word = measure_mb_s(stream_bytes, [&] {
    bitpack::BitReader reader(stream);
    std::uint32_t acc = 0;
    for (const auto& f : fields) acc ^= reader.get(f.nbits);
    sink = acc;
  });
  const double unpack_ref = measure_mb_s(stream_bytes, [&] {
    bitpack::ref::BitReader reader(stream);
    std::uint32_t acc = 0;
    for (const auto& f : fields) acc ^= reader.get(f.nbits);
    sink = acc;
  });
  (void)sink;

  const double pack_speedup = pack_word / pack_ref;
  const double unpack_speedup = unpack_word / unpack_ref;
  std::printf("bitstream (%zu fields, widths 1..8, %zu bytes/stream)\n", kFields, stream_bytes);
  std::printf("  %-8s %14s %14s %10s\n", "path", "word MB/s", "serial MB/s", "speedup");
  std::printf("  %-8s %14.1f %14.1f %9.2fx\n", "pack", pack_word, pack_ref, pack_speedup);
  std::printf("  %-8s %14.1f %14.1f %9.2fx\n", "unpack", unpack_word, unpack_ref, unpack_speedup);

  // --- Full column encode/decode per granularity -------------------------
  constexpr std::size_t kColumnLen = 16;
  constexpr std::size_t kColumns = 2048;
  std::vector<std::vector<std::uint8_t>> columns;
  columns.reserve(kColumns);
  for (std::size_t i = 0; i < kColumns; ++i) {
    columns.push_back(random_coeffs(kColumnLen, 900 + i, 24));
  }
  const std::size_t coeff_bytes = kColumns * kColumnLen;

  std::printf("\ncolumn codec (%zu columns x %zu coefficients, threshold 2)\n", kColumns,
              kColumnLen);
  std::printf("  %-20s %14s %14s\n", "granularity", "encode MB/s", "decode MB/s");
  std::vector<CodecPoint> codec_points;
  for (const auto granularity :
       {bitpack::NBitsGranularity::PerSubBandColumn, bitpack::NBitsGranularity::PerColumn,
        bitpack::NBitsGranularity::PerCoefficient}) {
    bitpack::ColumnCodecConfig config;
    config.granularity = granularity;
    config.threshold = 2;

    bitpack::ColumnEncoder encoder;
    bitpack::ColumnDecoder decoder;
    bitpack::EncodedColumn enc;
    std::vector<std::uint8_t> decoded;

    CodecPoint point;
    point.granularity = granularity_name(granularity);
    point.encode_mb_s = measure_mb_s(coeff_bytes, [&] {
      for (std::size_t i = 0; i < kColumns; ++i) {
        encoder.encode(columns[i], config, (i % 2) == 0, enc);
      }
    });

    // Pre-encode every column once for the decode measurement.
    std::vector<bitpack::EncodedColumn> encoded(kColumns);
    for (std::size_t i = 0; i < kColumns; ++i) {
      encoder.encode(columns[i], config, (i % 2) == 0, encoded[i]);
    }
    point.decode_mb_s = measure_mb_s(coeff_bytes, [&] {
      for (std::size_t i = 0; i < kColumns; ++i) {
        decoder.decode(encoded[i], kColumnLen, config, decoded);
      }
    });
    std::printf("  %-20s %14.1f %14.1f\n", point.granularity.c_str(), point.encode_mb_s,
                point.decode_mb_s);
    codec_points.push_back(point);
  }

  // --- Wavelet + threshold + NBits stage: per-pair scalar baseline vs the
  // --- batched band path on every table this CPU supports ------------------
  constexpr std::size_t kBandRows = 16;   // window height N
  constexpr std::size_t kBandWidth = 512;
  constexpr int kStageThreshold = 2;
  const std::size_t band_bytes = kBandRows * kBandWidth;
  std::vector<std::uint8_t> band(band_bytes);
  {
    image::SplitMix64 rng(4242);
    for (auto& v : band) v = static_cast<std::uint8_t>(rng.next());
  }
  std::vector<std::uint8_t> col_even, col_odd, kept;
  volatile std::uint32_t stage_sink = 0;

  std::printf("\nwavelet+threshold+NBits stage (band %zux%zu, threshold %d)\n", kBandRows,
              kBandWidth, kStageThreshold);
  std::printf("  %-18s %14s %10s\n", "path", "MB/s", "speedup");
  const double stage_baseline = measure_mb_s(band_bytes, [&] {
    stage_sink = wavelet_stage_per_pair_scalar(band, kBandRows, kBandWidth, kStageThreshold,
                                               col_even, col_odd, kept);
  });
  std::printf("  %-18s %14.1f %9s\n", "per_pair_scalar", stage_baseline, "1.00x");

  struct StagePoint {
    const char* table;
    double mb_s;
  };
  std::vector<StagePoint> stage_points;
  wavelet::BandPlanes planes;
  wavelet::BandScratch band_scratch;
  for (const auto* table : simd::available_tables()) {
    const double mb_s = measure_mb_s(band_bytes, [&] {
      stage_sink = wavelet_stage_batch(band, kBandRows, kBandWidth, kStageThreshold, *table,
                                       planes, band_scratch, col_even, col_odd, kept);
    });
    stage_points.push_back({table->name, mb_s});
    std::printf("  batch_%-12s %14.1f %9.2fx\n", table->name, mb_s, mb_s / stage_baseline);
  }
  (void)stage_sink;
  const double stage_best = stage_points.empty() ? 0.0 : stage_points.back().mb_s;
  const double stage_speedup = stage_best / stage_baseline;

  // --- Whole-engine throughput + per-stage telemetry breakdown -------------
  // A full compressed-engine scan is the one path where the per-row stage
  // spans actually execute, so its throughput record is what the CI
  // telemetry-overhead guard compares ON vs OFF (the synthetic loops above
  // contain no spans — their ON/OFF deltas are binary-layout noise, not span
  // cost). The run's snapshot is then reported stage by stage. Timer sums
  // are zero when built with SWC_TELEMETRY=OFF; the counters are functional
  // output and always present.
  constexpr std::size_t kEngineSize = 256;
  const auto engine_config = benchx::make_config(kEngineSize, 16, 2);
  const auto& engine_img = benchx::eval_set(kEngineSize).front();
  const core::CompressedEngine engine(engine_config);
  auto engine_run = engine.run_reentrant(
      engine_img, [](std::size_t, std::size_t, const core::WindowView&) {});
  const double engine_mb_s = measure_mb_s(kEngineSize * kEngineSize, [&] {
    (void)engine.run_reentrant(engine_img,
                               [](std::size_t, std::size_t, const core::WindowView&) {});
  });
  const std::string engine_cfg = "size=" + std::to_string(kEngineSize) + " n=16 threshold=2";
  std::printf("\ncompressed engine full scan (%s): %.1f MPixels/s, telemetry %s\n",
              engine_cfg.c_str(), engine_mb_s, telemetry::kSpansEnabled ? "on" : "off");
  if (telemetry::kSpansEnabled) {
    const auto& ids = core::EngineMetricIds::get();
    for (const auto [label, id] :
         {std::pair{"decompose", ids.stage_decompose}, std::pair{"encode", ids.stage_encode},
          std::pair{"recompose", ids.stage_recompose}}) {
      const telemetry::MetricCell* c = engine_run.stats.metrics.find(id);
      if (c == nullptr || c->count == 0) continue;
      std::printf("  %-12s %10.1f us total, %8.1f us/row\n", label,
                  static_cast<double>(c->sum) / 1e3, c->mean() / 1e3);
    }
  }

  // --- Per-backend engine scans -------------------------------------------
  // One full compressed-engine scan per registered codec backend at the same
  // geometry, so the BENCH_codec.json regression gate covers every backend's
  // hot path. "haar" runs the same loop as engine_frame above (the records
  // stay close); legall53 and microshift carry their own transform cost and
  // bit rate. Recorded under a separate name so the telemetry-overhead
  // guard, which gates --name engine_frame at 3%, keeps its single record.
  struct BackendPoint {
    std::string name;
    double mpixels_s = 0.0;
    double bpp = 0.0;
  };
  std::vector<BackendPoint> backend_points;
  std::printf("\nper-backend engine scan (%s)\n", engine_cfg.c_str());
  std::printf("  %-12s %14s %10s\n", "backend", "MPixels/s", "bpp");
  for (const auto& backend_name : codec::BackendRegistry::names()) {
    auto backend_config = engine_config;
    backend_config.backend = backend_name;
    const core::CompressedEngine backend_engine(backend_config);
    const auto run = backend_engine.run_reentrant(
        engine_img, [](std::size_t, std::size_t, const core::WindowView&) {});
    BackendPoint point;
    point.name = backend_name;
    point.mpixels_s = measure_mb_s(kEngineSize * kEngineSize, [&] {
      (void)backend_engine.run_reentrant(engine_img,
                                         [](std::size_t, std::size_t, const core::WindowView&) {});
    });
    const auto& ids = core::EngineMetricIds::get();
    const auto bits =
        run.stats.metrics.sum(ids.payload_bits) + run.stats.metrics.sum(ids.management_bits);
    point.bpp = static_cast<double>(bits) / static_cast<double>(kEngineSize * kEngineSize);
    std::printf("  %-12s %14.1f %10.3f\n", point.name.c_str(), point.mpixels_s, point.bpp);
    backend_points.push_back(std::move(point));
  }

  // --- Standardized JSON artifact -----------------------------------------
  std::vector<benchx::BenchRecord> records;
  const std::string bitstream_cfg =
      "fields=" + std::to_string(kFields) + " widths=1..8";
  records.push_back({"bitstream_pack", bitstream_cfg + " path=word", "throughput", pack_word,
                     "MB/s"});
  records.push_back({"bitstream_pack", bitstream_cfg + " path=bit_serial", "throughput", pack_ref,
                     "MB/s"});
  records.push_back({"bitstream_pack", bitstream_cfg, "speedup", pack_speedup, "x"});
  records.push_back({"bitstream_unpack", bitstream_cfg + " path=word", "throughput", unpack_word,
                     "MB/s"});
  records.push_back({"bitstream_unpack", bitstream_cfg + " path=bit_serial", "throughput",
                     unpack_ref, "MB/s"});
  records.push_back({"bitstream_unpack", bitstream_cfg, "speedup", unpack_speedup, "x"});
  const std::string codec_cfg = "columns=" + std::to_string(kColumns) +
                                " column_len=" + std::to_string(kColumnLen) + " threshold=2";
  for (const auto& p : codec_points) {
    records.push_back({"column_encode", codec_cfg + " granularity=" + p.granularity, "throughput",
                       p.encode_mb_s, "MB/s"});
    records.push_back({"column_decode", codec_cfg + " granularity=" + p.granularity, "throughput",
                       p.decode_mb_s, "MB/s"});
  }
  const std::string stage_cfg = "n=" + std::to_string(kBandRows) +
                                " w=" + std::to_string(kBandWidth) +
                                " threshold=" + std::to_string(kStageThreshold);
  records.push_back({"wavelet_stage", stage_cfg + " path=per_pair_scalar", "throughput",
                     stage_baseline, "MB/s"});
  for (const auto& p : stage_points) {
    records.push_back({"wavelet_stage", stage_cfg + " path=batch_" + p.table, "throughput",
                       p.mb_s, "MB/s"});
  }
  records.push_back({"wavelet_stage",
                     stage_cfg + " best=batch_" +
                         (stage_points.empty() ? "none" : std::string(stage_points.back().table)),
                     "speedup_vs_per_pair_scalar", stage_speedup, "x"});
  records.push_back({"engine_frame", engine_cfg, "throughput", engine_mb_s, "MPixels/s"});
  for (const auto& p : backend_points) {
    records.push_back({"engine_backend", engine_cfg + " backend=" + p.name, "throughput",
                       p.mpixels_s, "MPixels/s"});
    records.push_back(
        {"engine_backend", engine_cfg + " backend=" + p.name, "bits_per_pixel", p.bpp, "bpp"});
  }
  benchx::append_snapshot_records(records, engine_run.stats.metrics, "engine_stages", engine_cfg);
  benchx::write_bench_json("BENCH_codec.json", "codec_throughput", records);

  if (pack_speedup < 3.0 || unpack_speedup < 3.0) {
    std::printf("WARNING: pack/unpack speedup below the 3x acceptance threshold\n");
    return 1;
  }
  if (stage_speedup < 2.0) {
    std::printf("WARNING: wavelet stage speedup below the 2x acceptance threshold\n");
    return 1;
  }
  return 0;
}
