// Microshift-style backend: closed-loop vertical DPCM with a bit-depth-shift
// quantizer (after Zhang et al.'s Microshift, which trades bit depth for
// rate with a shifted predictive code).
//
// Per band column, top to bottom: predict each pixel from the *reconstructed*
// pixel above it (128 seeds the first row), take the wrapped residual, and
// drop its k low bits with a magnitude-preserving arithmetic shift, where
// k = min(3, threshold) maps the engine's threshold knob onto shift depth —
// k = 0 at threshold 0, so the backend is exactly lossless there. The
// closed loop (encoder reconstructs exactly what the decoder will) keeps
// quantization error from accumulating down the column. Quantized residual
// bytes then ride the NBits/BitMap column packer with thresholding disabled
// (the shift already decided significance): near-constant columns produce
// tiny residuals and narrow NBits fields, which is where the rate win over
// transform coding comes from on smooth imagery.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "codec/backend.hpp"
#include "codec/builtin.hpp"
#include "telemetry/telemetry.hpp"

namespace swc::codec {
namespace {

constexpr int kMaxShift = 3;  // beyond 8 - 5 bits the DC drift dominates

int shift_for(int threshold) { return std::clamp(threshold, 0, kMaxShift); }

// Magnitude-preserving arithmetic shift: quantize toward zero so the
// reconstruction delta q << k never overshoots the residual's sign.
std::uint8_t quantize_residual(std::uint8_t wrapped, int k) {
  const int e = static_cast<std::int8_t>(wrapped);
  const int q = e >= 0 ? (e >> k) : -((-e) >> k);
  return static_cast<std::uint8_t>(static_cast<std::uint32_t>(q) & 0xFFu);
}

struct MicroshiftScratch final : BackendScratch {
  detail::ColumnCoder coder;
  std::vector<std::uint8_t> residuals;
};

class MicroshiftBackend final : public CodecBackend {
 public:
  MicroshiftBackend()
      : total_id_(telemetry::Registry::metric("codec.microshift.transcode",
                                              telemetry::MetricKind::Timer, "ns")) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "microshift"; }

  [[nodiscard]] std::unique_ptr<BackendScratch> make_scratch() const override {
    return std::make_unique<MicroshiftScratch>();
  }

  void transcode_band(const std::uint8_t* band, std::size_t n, std::size_t w,
                      const bitpack::ColumnCodecConfig& config, BackendScratch& scratch,
                      std::uint8_t* out, telemetry::Snapshot& metrics,
                      BandTranscodeStats& stats) const override {
    auto& st = static_cast<MicroshiftScratch&>(scratch);
    const auto& ids = StageIds::get();
    telemetry::Span total(metrics, total_id_);

    stats.reset(n);
    const int k = shift_for(config.threshold);
    const int scale = 1 << k;
    // The shift is the quantizer; the packer must not threshold again.
    bitpack::ColumnCodecConfig pack = config;
    pack.threshold = 0;

    st.residuals.resize(n);

    // Prediction, quantization and the closed-loop reconstruction share one
    // pass, so all of this backend's time is in the encode stage
    // (decompose/recompose record nothing). At packer threshold 0 the coded
    // column is the residuals themselves: code() only does the accounting.
    {
      telemetry::Span span(metrics, ids.encode);
      for (std::size_t x = 0; x < w; ++x) {
        int pred = 128;
        for (std::size_t y = 0; y < n; ++y) {
          const std::uint8_t e =
              static_cast<std::uint8_t>((band[y * w + x] - pred) & 0xFF);
          const std::uint8_t q = quantize_residual(e, k);
          st.residuals[y] = q;
          pred = (pred + static_cast<std::int8_t>(q) * scale) & 0xFF;
          out[y * w + x] = static_cast<std::uint8_t>(pred);
        }
        st.coder.code(st.residuals, pack, /*column_is_even=*/true, stats);
      }
    }
  }

 private:
  telemetry::MetricId total_id_;
};

}  // namespace

std::unique_ptr<CodecBackend> make_microshift_backend() {
  return std::make_unique<MicroshiftBackend>();
}

}  // namespace swc::codec
