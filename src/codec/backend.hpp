#pragma once
// Pluggable codec backends for the compressed sliding-window engine.
//
// The engine's steady-state loop is architecture-fixed: a band of N rows
// shifts up one row per window row, and everything *behind* the window is
// recompressed on the way. What fills the compressed buffer — which
// transform, which predictor, which quantizer, which entropy layout — is
// the codec backend. This interface factors exactly that seam out of
// core::CompressedEngine: a backend consumes one N x W band, runs it through
// its own decompose/encode/recompose stages, and reports the bit accounting
// the engine turns into RunStats and BRAM provisioning.
//
// Contract for transcode_band():
//  * `band` and `out` are N x W row-major byte planes and must not alias.
//  * The result in `out` is the band as the hardware would reconstruct it
//    from the compressed buffer: bit-exact with `band` when the codec config
//    is lossless (threshold 0), drift-affected otherwise. Backends rebuild
//    it from the thresholded columns detail::ColumnCoder returns, which the
//    packer (lossless after the threshold) would unpack unchanged.
//  * All per-run mutable state lives in the BackendScratch the caller
//    obtained from make_scratch(), so one backend instance is const and
//    reentrant (the runtime processes many frames concurrently on one
//    engine and therefore one backend).
//  * Stage timings are recorded into `metrics` under the shared
//    engine.stage.* ids plus the backend's own codec.<name>.transcode total,
//    so RunStats::codec_ns() and the per-stage bench breakdowns keep working
//    for every backend.
//
// BackendRegistry is a fixed table of the built-in backends;
// core::EngineConfig::backend selects one per engine (and therefore per
// runtime stream / serve session).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bitpack/column_codec.hpp"
#include "telemetry/telemetry.hpp"

namespace swc::codec {

// Per-band-transition accounting a backend reports back to the engine. The
// stream_bits vector is the per-window-row FIFO occupancy (the paper's
// per-stream provisioning metric), sized N by the backend.
struct BandTranscodeStats {
  std::size_t payload_bits = 0;
  std::size_t management_bits = 0;
  std::size_t columns = 0;  // columns pushed through the column codec
  std::vector<std::size_t> stream_bits;

  void reset(std::size_t n) {
    payload_bits = 0;
    management_bits = 0;
    columns = 0;
    stream_bits.assign(n, 0);
  }
};

// Opaque per-run scratch. Each engine run owns one, so the backend instance
// itself stays immutable and the steady-state loop stays allocation-free.
class BackendScratch {
 public:
  virtual ~BackendScratch() = default;
};

// The dense engine.stage.* timer ids, interned here (idempotently, by name)
// so the codec layer does not depend on core:: — the registry hands back the
// same MetricId core::EngineMetricIds resolves, which is what keeps
// RunStats::codec_ns() backend-agnostic.
struct StageIds {
  telemetry::MetricId decompose;
  telemetry::MetricId encode;
  telemetry::MetricId recompose;

  [[nodiscard]] static const StageIds& get();
};

class CodecBackend {
 public:
  virtual ~CodecBackend() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  [[nodiscard]] virtual std::unique_ptr<BackendScratch> make_scratch() const = 0;

  // Round-trip one n x w band through the backend's compressed
  // representation (see the file comment for the full contract).
  virtual void transcode_band(const std::uint8_t* band, std::size_t n, std::size_t w,
                              const bitpack::ColumnCodecConfig& config, BackendScratch& scratch,
                              std::uint8_t* out, telemetry::Snapshot& metrics,
                              BandTranscodeStats& stats) const = 0;
};

// The built-in backends ("haar", "legall53", "microshift"), each built once
// on first use and shared by every engine that selects it (backends are
// immutable).
class BackendRegistry {
 public:
  // Throws std::invalid_argument for an unknown name.
  [[nodiscard]] static std::shared_ptr<const CodecBackend> make(std::string_view name);

  [[nodiscard]] static bool contains(std::string_view name);

  // Backend names, sorted.
  [[nodiscard]] static std::vector<std::string> names();
};

namespace detail {

// The column step every backend shares: packs one column, folds its payload,
// management and per-stream widths into `stats`, counts it in stats.columns,
// and returns the thresholded column, which is what unpacking would yield.
// The span stays valid until the next code().
class ColumnCoder {
 public:
  std::span<const std::uint8_t> code(std::span<const std::uint8_t> coeffs,
                                     const bitpack::ColumnCodecConfig& config,
                                     bool column_is_even, BandTranscodeStats& stats);

 private:
  bitpack::ColumnEncoder encoder_;
  bitpack::EncodedColumn encoded_;
};

}  // namespace detail

}  // namespace swc::codec
