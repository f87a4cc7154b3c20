#include "core/color.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "wavelet/haar.hpp"

namespace swc::core {
namespace {

// Two's-complement bits of a wide (chroma) coefficient; 0 and -1 need 1.
int signed_bits(int v) {
  return static_cast<int>(std::bit_width(static_cast<unsigned>(v < 0 ? ~v : v))) + 1;
}

// Band cost of one wide-valued (chroma) plane under the same per-sub-band-
// column NBits coding, with 5-bit NBits fields for the 9-bit datapath.
std::size_t chroma_band_bits(const image::Image<std::int16_t>& plane, std::size_t band_row,
                             const SlidingWindowSpec& spec, int threshold) {
  const std::size_t n = spec.window;
  const std::size_t half = n / 2;
  const std::size_t cols = spec.buffered_columns();
  std::size_t total = cols * (2 * 5 + n);  // NBits (2 x 5 bits) + BitMap per column

  std::vector<int> even_col(n), odd_col(n);
  for (std::size_t x = 0; x + 1 < cols; x += 2) {
    for (std::size_t k = 0; k < half; ++k) {
      const std::size_t r = band_row + 2 * k;
      const wavelet::HaarBlock c =
          wavelet::haar2d_forward(plane.at(x, r), plane.at(x + 1, r), plane.at(x, r + 1),
                                  plane.at(x + 1, r + 1));
      even_col[k] = c.ll;
      even_col[half + k] = c.lh;
      odd_col[k] = c.hl;
      odd_col[half + k] = c.hh;
    }
    auto half_bits = [&](const std::vector<int>& col, std::size_t begin) {
      int nbits = 1;
      std::size_t nonzero = 0;
      for (std::size_t i = begin; i < begin + half; ++i) {
        int v = col[i];
        if (std::abs(v) < threshold) v = 0;
        if (v != 0) {
          ++nonzero;
          nbits = std::max(nbits, signed_bits(v));
        }
      }
      return nonzero * static_cast<std::size_t>(nbits);
    };
    total += half_bits(even_col, 0) + half_bits(even_col, half);
    total += half_bits(odd_col, 0) + half_bits(odd_col, half);
  }
  return total;
}

std::size_t worst_chroma_bits(const image::Image<std::int16_t>& plane,
                              const SlidingWindowSpec& spec, int threshold,
                              std::size_t row_stride) {
  if (row_stride == 0) row_stride = std::max<std::size_t>(1, spec.window / 2);
  const std::size_t last_band = plane.height() - spec.window;
  std::size_t worst = 0;
  for (std::size_t r = 0;; r += row_stride) {
    const std::size_t band = std::min(r, last_band);
    worst = std::max(worst, chroma_band_bits(plane, band, spec, threshold));
    if (band == last_band) break;
  }
  return worst;
}

}  // namespace

RgbFrameCost compute_rgb_frame_cost(const image::RgbImage& rgb, const EngineConfig& config,
                                    std::size_t row_stride) {
  return {compute_frame_cost(rgb.r, config, row_stride),
          compute_frame_cost(rgb.g, config, row_stride),
          compute_frame_cost(rgb.b, config, row_stride)};
}

std::size_t traditional_rgb_bits(const SlidingWindowSpec& spec) {
  return spec.buffered_columns() * spec.window * 24;
}

double rgb_memory_saving_percent(const RgbFrameCost& cost, const SlidingWindowSpec& spec) {
  return (1.0 - static_cast<double>(cost.worst_total_bits()) /
                    static_cast<double>(traditional_rgb_bits(spec))) *
         100.0;
}

RctCost compute_rct_cost(const image::RgbImage& rgb, const EngineConfig& config,
                         std::size_t row_stride) {
  config.validate();
  const image::RctImage rct = image::rct_forward(rgb);
  RctCost cost;
  cost.luma_bits = compute_frame_cost(rct.y, config, row_stride).worst_band.total_bits();
  cost.chroma_bits =
      worst_chroma_bits(rct.cb, config.spec, config.codec.threshold, row_stride) +
      worst_chroma_bits(rct.cr, config.spec, config.codec.threshold, row_stride);
  cost.total_bits = cost.luma_bits + cost.chroma_bits;
  return cost;
}

}  // namespace swc::core
