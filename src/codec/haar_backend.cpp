// The paper's codec as a registry backend: row-blocked Wrap8 Haar decompose,
// threshold + NBits/BitMap column packing, unpack, batched recompose. This is
// a straight port of the engine's pre-registry hardwired recompress loop —
// the differential test in tests/codec/backend_registry_test.cpp holds it
// bit-identical (output bytes and bit accounting) to that path.

#include <cstdint>
#include <vector>

#include "bitpack/column_codec.hpp"
#include "codec/backend.hpp"
#include "codec/builtin.hpp"
#include "telemetry/telemetry.hpp"
#include "wavelet/band_transform.hpp"
#include "wavelet/column_decomposer.hpp"

namespace swc::codec {
namespace {

struct HaarScratch final : BackendScratch {
  bitpack::ColumnEncoder encoder;
  bitpack::ColumnDecoder decoder;
  std::vector<bitpack::EncodedColumn> enc_cols;
  std::vector<std::uint8_t> dec_even, dec_odd;
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
    const std::size_t pairs = w / 2;
    st.enc_cols.resize(2 * pairs);

    // Stage 1: transform the whole band in one row-blocked batched pass (W/2
    // SIMD lanes per lifting step).
    {
      telemetry::Span span(metrics, ids.decompose);
      wavelet::decompose_band_into(band, n, w, st.fwd_planes, st.band_scratch);
    }
    st.dec_planes.resize(n / 2, w / 2);

    // Stage 2: encode every column of the band. Keeping the whole band's
    // encoded columns lets encode and decode run as separately timed passes.
    {
      telemetry::Span span(metrics, ids.encode);
      for (std::size_t j = 0; j < pairs; ++j) {
        wavelet::gather_column_pair(st.fwd_planes, j, st.coeffs.even.data(), st.coeffs.odd.data());
        st.encoder.encode(st.coeffs.even, config, /*column_is_even=*/true, st.enc_cols[2 * j]);
        st.encoder.encode(st.coeffs.odd, config, /*column_is_even=*/false, st.enc_cols[2 * j + 1]);
      }
    }

    // Stage 3: decode every column back, scatter into the decoded planes,
    // and account bits / per-stream occupancy from the encoded form.
    {
      telemetry::Span span(metrics, ids.decode);
      for (std::size_t j = 0; j < pairs; ++j) {
        const bitpack::EncodedColumn& enc_even = st.enc_cols[2 * j];
        const bitpack::EncodedColumn& enc_odd = st.enc_cols[2 * j + 1];
        st.decoder.decode(enc_even, n, config, st.dec_even);
        st.decoder.decode(enc_odd, n, config, st.dec_odd);
        wavelet::scatter_column_pair(st.dec_planes, j, st.dec_even.data(), st.dec_odd.data());
        detail::account_column(enc_even, config, stats);
        detail::account_column(enc_odd, config, stats);
      }
    }
    stats.columns = 2 * pairs;

    // Stage 4: inverse-transform the decoded planes in one batched pass.
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
