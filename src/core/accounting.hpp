#pragma once
// Analytic memory accounting for the compressed sliding-window buffer.
//
// This is the model behind every memory experiment in the paper:
//  * Fig. 3  - per-sub-band buffer bits as the window slides,
//  * Fig. 13 - memory-saving percentages (Eq. 5) with confidence intervals,
//  * Tables II-V - worst-case stream sizes that drive BRAM provisioning.
//
// A "band" is the N-row horizontal strip of the image the line buffers hold
// while the window scans one output row. Within a band, each buffered column
// of N pixels is wavelet-decomposed and encoded by the column codec; the
// packed bits of window-row i across all columns form FIFO stream i (there is
// one Bit Packing unit, hence one stream, per window row).

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "image/image.hpp"
#include "wavelet/column_decomposer.hpp"

namespace swc::core {

// Bit cost of buffering one N-row band.
struct BandCost {
  std::size_t band_row = 0;
  // Payload bits per wavelet sub-band, indexed by wavelet::SubBand.
  std::array<std::size_t, 4> payload_bits{};
  std::size_t bitmap_bits = 0;
  std::size_t nbits_bits = 0;
  // Payload bits held by each window-row FIFO stream (size = window).
  std::vector<std::size_t> stream_bits;

  [[nodiscard]] std::size_t payload_total() const noexcept {
    return payload_bits[0] + payload_bits[1] + payload_bits[2] + payload_bits[3];
  }
  [[nodiscard]] std::size_t management_total() const noexcept {
    return bitmap_bits + nbits_bits;
  }
  [[nodiscard]] std::size_t total_bits() const noexcept {
    return payload_total() + management_total();
  }
  [[nodiscard]] std::size_t max_stream_bits() const noexcept;
};

// Exact cost of the band whose top row is `band_row` (single-pass codec, no
// recompression drift; the streaming engine measures the drifted variant).
// Every function here that takes an image throws std::invalid_argument when
// it does not match config.spec.
[[nodiscard]] BandCost compute_band_cost(const image::ImageU8& img, std::size_t band_row,
                                         const EngineConfig& config);

// Aggregate over bands sampled at `row_stride` (0 = auto: window/2, capped to
// keep full coverage on small images). Worst-case figures drive provisioning.
struct FrameCost {
  BandCost worst_band;              // band maximising total_bits()
  double mean_total_bits = 0.0;     // across sampled bands
  std::size_t worst_stream_bits = 0;  // max over bands and streams
  std::size_t bands_evaluated = 0;
};

[[nodiscard]] FrameCost compute_frame_cost(const image::ImageU8& img, const EngineConfig& config,
                                           std::size_t row_stride = 0);

// Eq. (5): saving = (1 - compressed/uncompressed) x 100, using the worst-case
// band (what hardware must provision) including management bits.
[[nodiscard]] double memory_saving_percent(const FrameCost& cost, const SlidingWindowSpec& spec);

// Multi-image summary with a 90% two-sided Student-t confidence interval
// (the paper's Fig. 13 error bars, n = 10 images).
struct SavingsSummary {
  double mean = 0.0;
  double ci90_halfwidth = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<double> per_image;
};

[[nodiscard]] SavingsSummary summarize_savings(std::span<const image::ImageU8> images,
                                               const EngineConfig& config,
                                               std::size_t row_stride = 0);

// Fig. 3 trace: buffer bits per sub-band for every band row (stride 1 by
// default), plus management, as the window slides down the image.
struct BufferTracePoint {
  std::size_t band_row = 0;
  std::array<std::size_t, 4> band_bits{};  // indexed by wavelet::SubBand
  std::size_t management_bits = 0;
  std::size_t total_bits = 0;
};

[[nodiscard]] std::vector<BufferTracePoint> trace_buffer_occupancy(const image::ImageU8& img,
                                                                   const EngineConfig& config,
                                                                   std::size_t row_stride = 1);

}  // namespace swc::core
