#pragma once
// Functional (golden-model) streaming engines for both architectures.
//
// TraditionalEngine models Fig. 1: line buffers hold raw rows, every window
// position sees pristine pixels.
//
// CompressedEngine models Fig. 4's dataflow: while the window scans output
// row r, each N-pixel column leaving the window is wavelet-decomposed,
// thresholded, bit-packed into the memory unit, and unpacked + inverse-
// transformed when it re-enters the window one image-width later for output
// row r+1. The model counts the packed bits but skips the unpack, since the
// thresholded coefficients are what it yields (codec/backend.hpp). With
// threshold 0 the codec is exactly lossless, so the two engines produce
// identical windows (verified by tests). With threshold > 0 the recycled
// rows accumulate recompression error over their N-row lifetime ("drift");
// reconstructed() exposes each row as it finally exits, which is the
// architecture's true output-side image, and stats() records the real buffer
// occupancy per row transition.
//
// Both engines invoke sink(row, col, WindowView) for every valid window
// position, left-to-right, top-to-bottom, matching the raster streaming
// order of the hardware.
//
// Reentrancy: run_reentrant() is const and keeps all per-run state on the
// caller's stack, so one engine instance can process many frames from many
// threads concurrently (the runtime layer depends on this). The mutating
// run()/stats()/reconstructed() API is a convenience wrapper for
// single-threaded callers.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bitpack/column_codec.hpp"
#include "codec/backend.hpp"
#include "core/config.hpp"
#include "image/image.hpp"
#include "telemetry/telemetry.hpp"

namespace swc::core {

// Read-only view of the active N x N window inside a band buffer.
class WindowView {
 public:
  WindowView(const std::uint8_t* band, std::size_t band_width, std::size_t window,
             std::size_t col) noexcept
      : band_(band), band_width_(band_width), window_(window), col_(col) {}

  // wx, wy in [0, window); wy = 0 is the top (oldest) row.
  [[nodiscard]] std::uint8_t at(std::size_t wx, std::size_t wy) const noexcept {
    return band_[wy * band_width_ + col_ + wx];
  }
  // Contiguous window-row span (the band is row-major), enabling the flat
  // row-span fast path in kernels/kernels.hpp.
  [[nodiscard]] const std::uint8_t* row(std::size_t wy) const noexcept {
    return band_ + wy * band_width_ + col_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return window_; }

 private:
  const std::uint8_t* band_;
  std::size_t band_width_;
  std::size_t window_;
  std::size_t col_;
};

// Dense telemetry ids for every engine metric, interned once per process.
// Stage timers only record when the tree is built with SWC_TELEMETRY=ON;
// the counters and gauges are functional output and are always live.
struct EngineMetricIds {
  telemetry::MetricId rows;             // counter: row transitions processed
  telemetry::MetricId windows;          // counter: window positions emitted
  telemetry::MetricId codec_columns;    // counter: columns through the codec
  telemetry::MetricId payload_bits;     // counter: packed payload bits
  telemetry::MetricId management_bits;  // counter: NBits/bitmap overhead bits
  telemetry::MetricId row_bits;         // gauge: whole-buffer occupancy peak
  telemetry::MetricId stream_bits;      // gauge: worst single window-row FIFO
  telemetry::MetricId stage_decompose;  // timer: wavelet forward pass
  telemetry::MetricId stage_encode;     // timer: column code + occupancy pass
  // No backend unpacks, so this reads 0, as microshift's decompose and
  // recompose do. Kept for per-stage reports that name all four timers.
  telemetry::MetricId stage_decode;     // timer: always 0
  telemetry::MetricId stage_recompose;  // timer: inverse pass + band shift

  [[nodiscard]] static const EngineMetricIds& get();
};

// Per-run accounting: a telemetry::Snapshot holding every counter/gauge/
// timer exactly once. The named accessors are a materialized view over the
// snapshot under the engine.* metric names, so nothing here duplicates a
// counter that the telemetry layer already owns.
struct RunStats {
  telemetry::Snapshot metrics;

  [[nodiscard]] std::size_t windows_emitted() const {
    return static_cast<std::size_t>(metrics.sum(EngineMetricIds::get().windows));
  }
  // Worst single window-row FIFO stream occupancy across the run.
  [[nodiscard]] std::size_t max_stream_bits() const {
    return static_cast<std::size_t>(metrics.max(EngineMetricIds::get().stream_bits));
  }
  // Worst whole-buffer occupancy across the run.
  [[nodiscard]] std::size_t max_row_bits() const {
    return static_cast<std::size_t>(metrics.max(EngineMetricIds::get().row_bits));
  }
  // Wall time in the codec passes (zero when built with SWC_TELEMETRY=OFF)
  // and the number of columns they processed.
  [[nodiscard]] std::uint64_t codec_ns() const {
    return metrics.sum(EngineMetricIds::get().stage_encode);
  }
  [[nodiscard]] std::uint64_t codec_columns() const {
    return metrics.sum(EngineMetricIds::get().codec_columns);
  }
  [[nodiscard]] double codec_ns_per_column() const {
    const std::uint64_t columns = codec_columns();
    return columns == 0 ? 0.0
                        : static_cast<double>(codec_ns()) / static_cast<double>(columns);
  }

  [[nodiscard]] std::size_t total_payload_bits() const {
    return static_cast<std::size_t>(metrics.sum(EngineMetricIds::get().payload_bits));
  }
  [[nodiscard]] std::size_t total_management_bits() const {
    return static_cast<std::size_t>(metrics.sum(EngineMetricIds::get().management_bits));
  }

  // One row transition's buffer occupancy.
  void note_row(std::size_t payload, std::size_t management) {
    const auto& ids = EngineMetricIds::get();
    metrics.add(ids.rows, 1);
    metrics.add(ids.payload_bits, payload);
    metrics.add(ids.management_bits, management);
    metrics.note_max(ids.row_bits, payload + management);
  }

  // Fold another run's stats into this one (stripe merging, multi-frame
  // accumulation): counters sum and gauges take the max over both runs
  // (cell-kind aware merge).
  void merge(const RunStats& other) { metrics.merge(other.metrics); }
};

class TraditionalEngine {
 public:
  explicit TraditionalEngine(SlidingWindowSpec spec) : spec_(spec) { spec_.validate(); }

  // Const, reentrant scan: safe to call concurrently on one engine instance.
  // Returns the number of windows emitted.
  template <typename Sink>
  std::size_t run_reentrant(const image::ImageU8& img, Sink&& sink) const {
    check_image(img);
    const std::size_t n = spec_.window;
    const std::size_t w = spec_.image_width;
    // Rolling band buffer, kept explicitly so both engines share the same
    // access pattern (and so tests can compare window-by-window).
    std::vector<std::uint8_t> band(n * w);
    for (std::size_t y = 0; y < n; ++y) {
      const auto row = img.row(y);
      std::copy(row.begin(), row.end(), band.begin() + static_cast<std::ptrdiff_t>(y * w));
    }
    std::size_t windows = 0;
    for (std::size_t r = 0;; ++r) {
      for (std::size_t c = 0; c + n <= w; ++c) {
        sink(r, c, WindowView(band.data(), w, n, c));
        ++windows;
      }
      if (r + n >= img.height()) break;
      // Shift the band up one row and append the next input row.
      std::copy(band.begin() + static_cast<std::ptrdiff_t>(w), band.end(), band.begin());
      const auto next = img.row(r + n);
      std::copy(next.begin(), next.end(), band.end() - static_cast<std::ptrdiff_t>(w));
    }
    return windows;
  }

  template <typename Sink>
  void run(const image::ImageU8& img, Sink&& sink) {
    windows_emitted_ = run_reentrant(img, std::forward<Sink>(sink));
  }

  [[nodiscard]] std::size_t windows_emitted() const noexcept { return windows_emitted_; }
  [[nodiscard]] const SlidingWindowSpec& spec() const noexcept { return spec_; }

 private:
  void check_image(const image::ImageU8& img) const;

  SlidingWindowSpec spec_;
  std::size_t windows_emitted_ = 0;
};

// Everything a compressed-engine pass produces besides the sink callbacks.
struct CompressedRunResult {
  image::ImageU8 reconstructed;  // rows as they exited the buffer
  RunStats stats;
};

class CompressedEngine {
 public:
  // All per-run working memory: the band double buffers, the backend's
  // opaque codec scratch, and the reconstructed-image storage. Every pass
  // owns one — either a stack-local the engine creates per call, or a
  // caller-held instance reused across frames so the steady state allocates
  // nothing at all (the runtime keeps one per stream; streams are
  // strand-serialized, so a single Scratch never sees two frames at once).
  // A Scratch may move between engines/codec configs freely: begin_run()
  // re-sizes everything and the backend resets its scratch per band.
  struct Scratch {
    std::vector<std::uint8_t> band;
    image::ImageU8 reconstructed;
    RunStats stats;

    std::unique_ptr<codec::BackendScratch> scratch;
    const codec::CodecBackend* scratch_backend = nullptr;  // who made `scratch`
    codec::BandTranscodeStats tstats;
    std::vector<std::uint8_t> recon_band;
    std::vector<std::uint8_t> next;
    // Storage bank for the next run's reconstructed image (filled by
    // recycle() when a caller discards a result).
    std::vector<std::uint8_t> spare;

    // Hand a no-longer-needed reconstructed image's buffer back so the
    // next begin_run() can build on its capacity instead of allocating.
    void recycle(image::ImageU8&& img) {
      std::vector<std::uint8_t> buf = std::move(img).release();
      if (buf.capacity() > spare.capacity()) spare = std::move(buf);
    }
  };

  // Resolves the configured codec backend through the registry; throws
  // std::invalid_argument for an unknown backend name.
  explicit CompressedEngine(EngineConfig config)
      : config_(std::move(config)), backend_(codec::BackendRegistry::make(config_.backend)) {
    config_.validate();
  }

  // Const, reentrant pass: all per-run state lives in a local Scratch, so
  // one engine instance can serve concurrent frames from a thread pool.
  template <typename Sink>
  CompressedRunResult run_reentrant(const image::ImageU8& img, Sink&& sink) const {
    return run_with_codec(img, config_.codec, std::forward<Sink>(sink));
  }

  // As run_reentrant(), but with a per-run codec-config override (same
  // geometry/backend). This is the rate controller's actuator: a stream can
  // steer the threshold frame to frame without reconstructing the engine.
  template <typename Sink>
  CompressedRunResult run_with_codec(const image::ImageU8& img,
                                     const bitpack::ColumnCodecConfig& codec, Sink&& sink) const {
    Scratch st;
    return run_with_codec(img, codec, std::forward<Sink>(sink), st);
  }

  // Scratch-reusing form: all working memory comes from (and returns to)
  // the caller's Scratch. One Scratch must not be shared by concurrent
  // runs; distinct Scratches keep this const method fully reentrant.
  template <typename Sink>
  CompressedRunResult run_with_codec(const image::ImageU8& img,
                                     const bitpack::ColumnCodecConfig& codec, Sink&& sink,
                                     Scratch& st) const {
    begin_run(img, st);
    const std::size_t n = config_.spec.window;
    const std::size_t w = config_.spec.image_width;
    const auto& ids = EngineMetricIds::get();
    for (std::size_t r = 0;; ++r) {
      for (std::size_t c = 0; c + n <= w; ++c) {
        sink(r, c, WindowView(st.band.data(), w, n, c));
      }
      st.stats.metrics.add(ids.windows, w - n + 1);
      // Row 0 of the band exits the architecture now; it is the final,
      // possibly drift-affected value of image row r.
      commit_exiting_row(r, st);
      if (r + n >= img.height()) {
        flush_tail(r, st);
        break;
      }
      recompress_and_shift(img, r, codec, st);
    }
    return {std::move(st.reconstructed), std::move(st.stats)};
  }

  template <typename Sink>
  void run(const image::ImageU8& img, Sink&& sink) {
    auto result = run_reentrant(img, std::forward<Sink>(sink));
    reconstructed_ = std::move(result.reconstructed);
    stats_ = std::move(result.stats);
  }

  [[nodiscard]] const RunStats& stats() const noexcept { return stats_; }
  // Rows as they exited the buffer after their full recompression lifetime.
  [[nodiscard]] const image::ImageU8& reconstructed() const { return reconstructed_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] const codec::CodecBackend& backend() const noexcept { return *backend_; }

 private:
  void begin_run(const image::ImageU8& img, Scratch& st) const;
  void commit_exiting_row(std::size_t r, Scratch& st) const;
  void flush_tail(std::size_t last_r, Scratch& st) const;
  // Round-trip the band through the codec backend, shift the reconstructed
  // band up one row, and append input row (r + window).
  void recompress_and_shift(const image::ImageU8& img, std::size_t r,
                            const bitpack::ColumnCodecConfig& codec, Scratch& st) const;

  EngineConfig config_;
  // Shared immutable backend instance (engines copy freely; the registry
  // memoizes one object per name).
  std::shared_ptr<const codec::CodecBackend> backend_;
  image::ImageU8 reconstructed_;
  RunStats stats_;
};

// Convenience: run the compressed engine with a no-op sink and return the
// reconstructed image (the codec's end-to-end output view).
[[nodiscard]] image::ImageU8 roundtrip_image(const image::ImageU8& img, const EngineConfig& config);

}  // namespace swc::core
