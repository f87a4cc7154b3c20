#include "core/accounting.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "bitpack/column_codec.hpp"
#include "wavelet/band_transform.hpp"

namespace swc::core {
namespace {

// Student-t 0.95 quantile (two-sided 90% CI) for small sample sizes; the
// evaluation uses n = 10 images, so df = 9 -> 1.833.
double t95(std::size_t df) {
  static constexpr double table[] = {0.0,   6.314, 2.920, 2.353, 2.132, 2.015,
                                     1.943, 1.895, 1.860, 1.833, 1.812};
  if (df == 0) return 0.0;
  if (df <= 10) return table[df];
  return 1.645 + 2.0 / static_cast<double>(df);  // asymptotic with small correction
}

std::size_t resolve_stride(const EngineConfig& config, std::size_t requested) {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, config.spec.window / 2);
}

void check_image(const image::ImageU8& img, const EngineConfig& config, const char* who) {
  config.validate();
  if (img.width() != config.spec.image_width || img.height() != config.spec.image_height) {
    throw std::invalid_argument(std::string(who) + ": image does not match spec dimensions");
  }
}

// Per-call working memory, reused across the bands of one frame: the band's
// sub-band planes, one gathered column pair and the column encoder.
class BandAccountant {
 public:
  // The band's N rows are contiguous in the row-major image, so the engine's
  // batched band transform reads them straight from the image; the W - N
  // buffered columns are then gathered pair by pair and encoded exactly as
  // the haar backend does.
  BandCost measure(const image::ImageU8& img, std::size_t band_row, const EngineConfig& config) {
    const std::size_t n = config.spec.window;
    const std::size_t w = config.spec.image_width;
    BandCost cost;
    cost.band_row = band_row;
    cost.stream_bits.assign(n, 0);
    wavelet::decompose_band_into(img.pixels().data() + band_row * w, n, w, planes_, scratch_);
    even_.resize(n);
    odd_.resize(n);
    for (std::size_t j = 0; j < config.spec.buffered_columns() / 2; ++j) {
      wavelet::gather_column_pair(planes_, j, even_.data(), odd_.data());
      encoder_.encode(even_, config.codec, /*column_is_even=*/true, enc_);
      accumulate(cost, config.codec, /*odd_column=*/false);
      encoder_.encode(odd_, config.codec, /*column_is_even=*/false, enc_);
      accumulate(cost, config.codec, /*odd_column=*/true);
    }
    return cost;
  }

 private:
  // Splits the encoded column's payload per sub-band and per stream.
  void accumulate(BandCost& cost, const bitpack::ColumnCodecConfig& codec, bool odd_column) const {
    cost.bitmap_bits += enc_.bitmap_bits();
    cost.nbits_bits += enc_.nbits_field_bits();
    const std::size_t half = enc_.bitmap.size() / 2;
    const auto top = static_cast<std::size_t>(wavelet::top_band(odd_column));
    const auto bottom = static_cast<std::size_t>(wavelet::bottom_band(odd_column));
    std::size_t walked = 0;
    bitpack::for_each_payload_width(enc_, codec, [&](std::size_t i, int width) {
      const auto bits = static_cast<std::size_t>(width);
      cost.payload_bits[i < half ? top : bottom] += bits;
      cost.stream_bits[i] += bits;
      walked += bits;
    });
    if (walked != enc_.payload_bit_count) {
      throw std::logic_error("accounting: payload split does not sum to payload size");
    }
  }

  wavelet::BandPlanes planes_;
  wavelet::BandScratch scratch_;
  std::vector<std::uint8_t> even_, odd_;
  bitpack::ColumnEncoder encoder_;
  bitpack::EncodedColumn enc_;
};

}  // namespace

std::size_t BandCost::max_stream_bits() const noexcept {
  std::size_t worst = 0;
  for (const auto bits : stream_bits) worst = std::max(worst, bits);
  return worst;
}

BandCost compute_band_cost(const image::ImageU8& img, std::size_t band_row,
                           const EngineConfig& config) {
  check_image(img, config, "compute_band_cost");
  if (band_row + config.spec.window > img.height()) {
    throw std::invalid_argument("compute_band_cost: band does not fit in image");
  }
  return BandAccountant{}.measure(img, band_row, config);
}

FrameCost compute_frame_cost(const image::ImageU8& img, const EngineConfig& config,
                             std::size_t row_stride) {
  check_image(img, config, "compute_frame_cost");
  const std::size_t stride = resolve_stride(config, row_stride);
  const std::size_t last_band = img.height() - config.spec.window;

  BandAccountant accountant;
  FrameCost frame;
  double total = 0.0;
  std::size_t worst_total = 0;
  for (std::size_t r = 0;; r += stride) {
    const std::size_t band = std::min(r, last_band);
    BandCost cost = accountant.measure(img, band, config);
    total += static_cast<double>(cost.total_bits());
    frame.worst_stream_bits = std::max(frame.worst_stream_bits, cost.max_stream_bits());
    if (cost.total_bits() > worst_total || frame.bands_evaluated == 0) {
      worst_total = cost.total_bits();
      frame.worst_band = std::move(cost);
    }
    ++frame.bands_evaluated;
    if (band == last_band) break;
  }
  frame.mean_total_bits = total / static_cast<double>(frame.bands_evaluated);
  return frame;
}

double memory_saving_percent(const FrameCost& cost, const SlidingWindowSpec& spec) {
  const auto uncompressed = static_cast<double>(spec.traditional_bits());
  const auto compressed = static_cast<double>(cost.worst_band.total_bits());
  return (1.0 - compressed / uncompressed) * 100.0;
}

SavingsSummary summarize_savings(std::span<const image::ImageU8> images,
                                 const EngineConfig& config, std::size_t row_stride) {
  if (images.empty()) throw std::invalid_argument("summarize_savings: empty image set");
  SavingsSummary s;
  s.per_image.reserve(images.size());
  for (const auto& img : images) {
    const FrameCost cost = compute_frame_cost(img, config, row_stride);
    s.per_image.push_back(memory_saving_percent(cost, config.spec));
  }
  s.min = *std::min_element(s.per_image.begin(), s.per_image.end());
  s.max = *std::max_element(s.per_image.begin(), s.per_image.end());
  double sum = 0.0;
  for (const double v : s.per_image) sum += v;
  s.mean = sum / static_cast<double>(s.per_image.size());
  double var = 0.0;
  for (const double v : s.per_image) var += (v - s.mean) * (v - s.mean);
  const std::size_t df = s.per_image.size() - 1;
  if (df > 0) {
    var /= static_cast<double>(df);
    const double sem = std::sqrt(var / static_cast<double>(s.per_image.size()));
    s.ci90_halfwidth = t95(df) * sem;
  }
  return s;
}

std::vector<BufferTracePoint> trace_buffer_occupancy(const image::ImageU8& img,
                                                     const EngineConfig& config,
                                                     std::size_t row_stride) {
  check_image(img, config, "trace_buffer_occupancy");
  if (row_stride == 0) row_stride = 1;
  BandAccountant accountant;
  std::vector<BufferTracePoint> trace;
  const std::size_t last_band = img.height() - config.spec.window;
  for (std::size_t r = 0;; r += row_stride) {
    const std::size_t band = std::min(r, last_band);
    const BandCost cost = accountant.measure(img, band, config);
    BufferTracePoint pt;
    pt.band_row = band;
    pt.band_bits = cost.payload_bits;
    pt.management_bits = cost.management_total();
    pt.total_bits = cost.total_bits();
    trace.push_back(pt);
    if (band == last_band) break;
  }
  return trace;
}

}  // namespace swc::core
