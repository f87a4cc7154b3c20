// Ablation for the Section IV-C filter choice. The paper keeps a one-level
// Haar "instead of other transformations like 5/3 and 7/9", and over 2-3
// levels, for hardware simplicity. This bench asks the architecture itself:
// it runs core::CompressedEngine once per registered codec backend over the
// 512x512 eval sets at N = 16 and prints, per threshold, the bits buffered
// per row transition (mean and worst, as a share of the raw N-row band) next
// to the distortion they buy (max |error| of the reconstructed image). The
// hardware side is the Haar datapath's area and throughput from
// resources::Estimator (Silva & Bampi's area-versus-throughput terms); the
// repo models no 5/3 datapath.
//
// The levels question has no bench: legall53 changes the filter and the
// level count together (3 levels at N = 16), and a level option would be a
// new knob (EXPERIMENTS.md, "Ablations").

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "codec/backend.hpp"
#include "common/bench_common.hpp"
#include "core/streaming_engine.hpp"
#include "image/metrics.hpp"
#include "resources/estimator.hpp"

namespace {

constexpr std::size_t kSize = 512;
constexpr std::size_t kWindow = 16;

struct Row {
  double mean_pct = 0.0;   // mean buffered bits per row transition, % of raw
  double worst_pct = 0.0;  // worst row transition (max_row_bits), % of raw
  int max_abs_error = 0;   // over every image's reconstructed output
};

Row measure(const std::vector<swc::image::ImageU8>& images, const std::string& backend,
            int threshold) {
  auto config = swc::benchx::make_config(kSize, kWindow, threshold);
  config.backend = backend;
  const swc::core::CompressedEngine engine(config);
  const auto rows_id = swc::core::EngineMetricIds::get().rows;
  std::size_t bits = 0;
  std::uint64_t rows = 0;
  std::size_t worst = 0;
  Row row;
  for (const auto& img : images) {
    const auto result =
        engine.run_reentrant(img, [](std::size_t, std::size_t, const swc::core::WindowView&) {});
    bits += result.stats.total_payload_bits() + result.stats.total_management_bits();
    rows += result.stats.metrics.sum(rows_id);
    worst = std::max(worst, result.stats.max_row_bits());
    row.max_abs_error =
        std::max(row.max_abs_error, swc::image::max_abs_error(img, result.reconstructed));
  }
  const double raw_band_bits = static_cast<double>(kWindow * kSize * 8);
  row.mean_pct = 100.0 * static_cast<double>(bits) / static_cast<double>(rows) / raw_band_bits;
  row.worst_pct = 100.0 * static_cast<double>(worst) / raw_band_bits;
  return row;
}

void print_datapath(const char* block, const swc::resources::ResourceEstimate& e) {
  // Fully pipelined at one pixel per clock: throughput is Fmax.
  std::printf("  Haar %-4s  %4zu LUTs  %4zu FFs  Fmax %.1f MHz = %.1f Mpx/s\n", block, e.luts,
              e.registers, e.fmax_mhz, e.fmax_mhz);
}

}  // namespace

int main() {
  using namespace swc;
  benchx::print_header("Ablation — Haar vs 5/3 (LeGall) wavelet (Section IV-C)",
                       "512x512, 10 images, N = 16: core::CompressedEngine per codec backend");

  for (const bool upscaled : {true, false}) {
    const auto& images = upscaled ? benchx::eval_set_upscaled(kSize) : benchx::eval_set(kSize);
    std::printf("--- %s set ---\n", upscaled ? "upscaled-protocol (paper's data pipeline)"
                                             : "resolution-true");
    std::printf("%-10s %2s %14s %15s %10s\n", "backend", "T", "mean % of raw", "worst % of raw",
                "max |err|");
    for (const auto& name : codec::BackendRegistry::names()) {
      for (const int t : benchx::kThresholds) {
        const Row row = measure(images, name, t);
        std::printf("%-10s %2d %13.1f%% %14.1f%% %10d\n", name.c_str(), t, row.mean_pct,
                    row.worst_pct, row.max_abs_error);
      }
    }
    std::printf("\n");
  }

  std::printf("Haar datapath at N = %zu (resources::Estimator, XC7Z020, 1 px/cycle):\n",
              kWindow);
  print_datapath("IWT", resources::estimate_iwt(kWindow));
  print_datapath("IIWT", resources::estimate_iiwt(kWindow));
  std::printf("The repo models no 5/3 datapath: legall53 exists only as a codec backend.\n");
  return 0;
}
