#include "core/streaming_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace swc::core {
namespace {

void check_dims(const image::ImageU8& img, const SlidingWindowSpec& spec, const char* who) {
  if (img.width() != spec.image_width || img.height() != spec.image_height) {
    throw std::invalid_argument(std::string(who) + ": image does not match spec dimensions");
  }
}

}  // namespace

const EngineMetricIds& EngineMetricIds::get() {
  using telemetry::MetricKind;
  using telemetry::Registry;
  static const EngineMetricIds ids = {
      Registry::metric("engine.rows", MetricKind::Counter, "rows"),
      Registry::metric("engine.windows", MetricKind::Counter, "windows"),
      Registry::metric("engine.codec_columns", MetricKind::Counter, "columns"),
      Registry::metric("engine.payload_bits", MetricKind::Counter, "bits"),
      Registry::metric("engine.management_bits", MetricKind::Counter, "bits"),
      Registry::metric("engine.row_bits", MetricKind::Gauge, "bits"),
      Registry::metric("engine.stream_bits", MetricKind::Gauge, "bits"),
      Registry::metric("engine.stage.decompose", MetricKind::Timer, "ns"),
      Registry::metric("engine.stage.encode", MetricKind::Timer, "ns"),
      Registry::metric("engine.stage.decode", MetricKind::Timer, "ns"),
      Registry::metric("engine.stage.recompose", MetricKind::Timer, "ns"),
  };
  return ids;
}

void TraditionalEngine::check_image(const image::ImageU8& img) const {
  check_dims(img, spec_, "TraditionalEngine");
}

void CompressedEngine::begin_run(const image::ImageU8& img, Scratch& st) const {
  check_dims(img, config_.spec, "CompressedEngine");
  const std::size_t n = config_.spec.window;
  const std::size_t w = config_.spec.image_width;
  st.band.assign(n * w, 0);
  for (std::size_t y = 0; y < n; ++y) {
    const auto row = img.row(y);
    std::copy(row.begin(), row.end(), st.band.begin() + static_cast<std::ptrdiff_t>(y * w));
  }
  // Rebuild the output image on recycled storage when the scratch has any
  // (spare was banked by Scratch::recycle, or the previous run's result was
  // never moved out); a fresh scratch allocates once and reuses thereafter.
  std::vector<std::uint8_t> recon = std::move(st.reconstructed).release();
  if (st.spare.capacity() > recon.capacity()) recon = std::move(st.spare);
  recon.assign(img.size(), 0);
  st.reconstructed = image::ImageU8(img.width(), img.height(), std::move(recon));
  st.stats = RunStats{};
  // The codec scratch's concrete type belongs to the backend that made it;
  // re-make it when the scratch migrates to an engine with a different
  // backend (registry memoization makes pointer identity sufficient).
  if (st.scratch == nullptr || st.scratch_backend != backend_.get()) {
    st.scratch = backend_->make_scratch();
    st.scratch_backend = backend_.get();
  }
}

void CompressedEngine::commit_exiting_row(std::size_t r, Scratch& st) const {
  const std::size_t w = config_.spec.image_width;
  std::copy(st.band.begin(), st.band.begin() + static_cast<std::ptrdiff_t>(w),
            st.reconstructed.row(r).begin());
}

void CompressedEngine::flush_tail(std::size_t last_r, Scratch& st) const {
  const std::size_t n = config_.spec.window;
  const std::size_t w = config_.spec.image_width;
  for (std::size_t y = 1; y < n; ++y) {
    std::copy(st.band.begin() + static_cast<std::ptrdiff_t>(y * w),
              st.band.begin() + static_cast<std::ptrdiff_t>((y + 1) * w),
              st.reconstructed.row(last_r + y).begin());
  }
}

void CompressedEngine::recompress_and_shift(const image::ImageU8& img, std::size_t r,
                                            const bitpack::ColumnCodecConfig& codec,
                                            Scratch& st) const {
  const std::size_t n = config_.spec.window;
  const std::size_t w = config_.spec.image_width;
  const auto& ids = EngineMetricIds::get();

  st.next.resize(n * w);
  st.recon_band.resize(n * w);

  // The backend round-trips the band through its compressed representation
  // (decompose -> encode -> decode -> recompose, each stage span-timed under
  // the shared engine.stage.* ids) and reports the bit accounting.
  backend_->transcode_band(st.band.data(), n, w, codec, *st.scratch, st.recon_band.data(),
                           st.stats.metrics, st.tstats);

  // Shift the reconstructed band up one row and append input row (r + n).
  std::copy(st.recon_band.begin() + static_cast<std::ptrdiff_t>(w), st.recon_band.end(),
            st.next.begin());
  const auto input = img.row(r + n);
  std::copy(input.begin(), input.end(),
            st.next.begin() + static_cast<std::ptrdiff_t>((n - 1) * w));
  std::swap(st.band, st.next);

  st.stats.note_row(st.tstats.payload_bits, st.tstats.management_bits);
  st.stats.metrics.add(ids.codec_columns, st.tstats.columns);
  for (const auto bits : st.tstats.stream_bits) {
    st.stats.metrics.note_max(ids.stream_bits, bits);
  }
}

image::ImageU8 roundtrip_image(const image::ImageU8& img, const EngineConfig& config) {
  const CompressedEngine engine(config);
  auto result = engine.run_reentrant(img, [](std::size_t, std::size_t, const WindowView&) {});
  return std::move(result.reconstructed);
}

}  // namespace swc::core
