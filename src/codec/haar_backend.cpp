// The paper's codec as a registry backend: row-blocked Wrap8 Haar decompose,
// threshold + NBits/BitMap column packing, batched recompose of the
// thresholded columns. The differential test in
// tests/codec/backend_registry_test.cpp holds it bit-identical (output bytes
// and bit accounting) to the same pipeline with every packed column
// unpacked by the bitpack decoder.

#include <algorithm>
#include <cstdint>

#include "codec/backend.hpp"
#include "codec/builtin.hpp"
#include "telemetry/telemetry.hpp"
#include "wavelet/band_transform.hpp"
#include "wavelet/column_decomposer.hpp"

namespace swc::codec {
namespace {

struct HaarScratch final : BackendScratch {
  detail::ColumnCoder coder;
  wavelet::CoeffColumnPair coeffs;
  wavelet::BandPlanes fwd_planes, dec_planes;
  wavelet::BandScratch band_scratch;
};

class HaarBackend final : public CodecBackend {
 public:
  HaarBackend()
      : total_id_(telemetry::Registry::metric("codec.haar.transcode", telemetry::MetricKind::Timer,
                                              "ns")) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "haar"; }

  [[nodiscard]] std::unique_ptr<BackendScratch> make_scratch() const override {
    return std::make_unique<HaarScratch>();
  }

  void transcode_band(const std::uint8_t* band, std::size_t n, std::size_t w,
                      const bitpack::ColumnCodecConfig& config, BackendScratch& scratch,
                      std::uint8_t* out, telemetry::Snapshot& metrics,
                      BandTranscodeStats& stats) const override {
    auto& st = static_cast<HaarScratch&>(scratch);
    const auto& ids = StageIds::get();
    telemetry::Span total(metrics, total_id_);

    stats.reset(n);
    st.coeffs.even.resize(n);
    st.coeffs.odd.resize(n);

    // Stage 1: transform the whole band in one row-blocked batched pass (W/2
    // SIMD lanes per lifting step).
    {
      telemetry::Span span(metrics, ids.decompose);
      wavelet::decompose_band_into(band, n, w, st.fwd_planes, st.band_scratch);
    }
    st.dec_planes.resize(n / 2, w / 2);

    // Stage 2: code every column pair and scatter the thresholded columns
    // (what the unpacker would return) into the decoded planes. The even
    // result is copied out before the odd column reuses the coder.
    {
      telemetry::Span span(metrics, ids.encode);
      for (std::size_t j = 0; j < w / 2; ++j) {
        wavelet::gather_column_pair(st.fwd_planes, j, st.coeffs.even.data(), st.coeffs.odd.data());
        const auto even = st.coder.code(st.coeffs.even, config, /*column_is_even=*/true, stats);
        std::copy(even.begin(), even.end(), st.coeffs.even.begin());
        const auto odd = st.coder.code(st.coeffs.odd, config, /*column_is_even=*/false, stats);
        wavelet::scatter_column_pair(st.dec_planes, j, st.coeffs.even.data(), odd.data());
      }
    }

    // Stage 3: inverse-transform the decoded planes in one batched pass.
    {
      telemetry::Span span(metrics, ids.recompose);
      wavelet::recompose_band_into(st.dec_planes, n, w, out, st.band_scratch);
    }
  }

 private:
  telemetry::MetricId total_id_;
};

}  // namespace

std::unique_ptr<CodecBackend> make_haar_backend() { return std::make_unique<HaarBackend>(); }

}  // namespace swc::codec
