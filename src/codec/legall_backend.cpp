// Multi-level LeGall 5/3 backend in wrap-mod-256 byte arithmetic.
//
// The classic int 5/3 lifting pair
//   d[i] = x[2i+1] - floor((x[2i] + x[2i+2]) / 2)        (predict)
//   s[i] = x[2i]   + floor((d[i-1] + d[i] + 2) / 4)      (update)
// is applied with every result wrapped to one byte, the same trick
// wavelet/haar.hpp plays for the paper's Haar: the forward pass computes
// each lifting term as a deterministic function of already-stored bytes, so
// the inverse recomputes the identical term from the identical bytes and
// subtracts it exactly — byte-lossless regardless of wrap-around. Detail
// bytes are sign-extended (int8) wherever a lifting term reads them, matching
// how the column codec's NBits width model treats stored bytes as
// two's-complement: in every update, and in the vertical predict, whose
// region rows the horizontal pass leaves as [low-pass | detail]. Read as
// unsigned, a detail of -1 next to a positive one would move the vertical
// prediction by 128; T = 0 would still round-trip (the inverse repeats the
// misreading), but a threshold that moves a detail across zero would move
// the reconstructed odd row by about 128.
//
// Levels recurse on the LL quadrant (Mallat layout) while both dimensions
// stay even, capped at 3 — an 8-row band gets the full 3-level pyramid. The
// transformed band then rides the existing threshold + NBits/BitMap column
// codec unchanged. Lifting arithmetic runs through the runtime-dispatched
// simd::batch() legall_predict/legall_update int32 kernels with byte<->int32
// staging; the horizontal deinterleave uses the byte polyphase kernel.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "codec/backend.hpp"
#include "codec/builtin.hpp"
#include "simd/batch_kernels.hpp"
#include "telemetry/telemetry.hpp"

namespace swc::codec {
namespace {

constexpr int kMaxLevels = 3;

int levels_for(std::size_t n, std::size_t w) {
  int levels = 0;
  while (levels < kMaxLevels) {
    const std::size_t cn = n >> levels;
    const std::size_t cw = w >> levels;
    if (cn < 2 || cw < 2 || cn % 2 != 0 || cw % 2 != 0) break;
    ++levels;
  }
  return levels;
}

struct LegallScratch final : BackendScratch {
  std::vector<std::uint8_t> work;        // n x w working band (forward layout)
  std::vector<std::uint8_t> recon;       // coded band before the inverse
  std::vector<std::uint8_t> row_even, row_odd, row_tmp;
  std::vector<std::uint8_t> v_low, v_high;  // vertical-stage halves, region-sized
  // int32 staging for the batched lifting kernels.
  std::vector<std::int32_t> a32, b32, c32, o32, p32;
  detail::ColumnCoder coder;
  std::vector<std::uint8_t> col;
};

void widen_u8(const std::uint8_t* in, std::int32_t* out, std::size_t m) {
  for (std::size_t i = 0; i < m; ++i) out[i] = in[i];
}

// Detail bytes carry signed residuals: sign-extend before the update term.
void widen_s8(const std::uint8_t* in, std::int32_t* out, std::size_t m) {
  for (std::size_t i = 0; i < m; ++i) out[i] = static_cast<std::int8_t>(in[i]);
}

// A region row after the horizontal pass: low-pass lanes [0, m/2), detail
// lanes [m/2, m).
void widen_row(const std::uint8_t* in, std::int32_t* out, std::size_t m) {
  widen_u8(in, out, m / 2);
  widen_s8(in + m / 2, out + m / 2, m - m / 2);
}

void narrow_u8(const std::int32_t* in, std::uint8_t* out, std::size_t m) {
  for (std::size_t i = 0; i < m; ++i) {
    out[i] = static_cast<std::uint8_t>(static_cast<std::uint32_t>(in[i]) & 0xFFu);
  }
}

// One forward lifting pass over m even/odd byte lanes: d = odd - pred(even),
// s = even + update(d). `even_next` is even shifted left one lane with the
// last lane repeated (symmetric extension); d_prev mirrors d[0].
void lift_forward(LegallScratch& st, const std::uint8_t* even, const std::uint8_t* even_next,
                  const std::uint8_t* odd, std::uint8_t* s_out, std::uint8_t* d_out,
                  std::size_t m, const simd::BatchKernelTable& kernels) {
  st.a32.resize(m);
  st.b32.resize(m);
  st.c32.resize(m);
  st.o32.resize(m);
  st.p32.resize(m);
  widen_u8(even, st.a32.data(), m);
  widen_u8(even_next, st.b32.data(), m);
  widen_u8(odd, st.c32.data(), m);
  kernels.legall_predict(st.a32.data(), st.b32.data(), st.c32.data(), st.o32.data(), m, -1);
  narrow_u8(st.o32.data(), d_out, m);
  // Update reads the *stored* detail bytes back as int8 so the inverse can
  // reproduce the term exactly from what survived the wrap.
  widen_s8(d_out, st.o32.data(), m);
  st.p32[0] = st.o32[0];
  std::copy(st.o32.begin(), st.o32.end() - 1, st.p32.begin() + 1);
  kernels.legall_update(st.a32.data(), st.p32.data(), st.o32.data(), st.c32.data(), m, +1);
  narrow_u8(st.c32.data(), s_out, m);
}

// Exact inverse of lift_forward given the stored s/d bytes. Produces the
// even lanes first (s - update(d)), then the odd lanes (d + pred(even)).
void lift_inverse(LegallScratch& st, const std::uint8_t* s_in, const std::uint8_t* d_in,
                  std::uint8_t* even_out, std::uint8_t* odd_out, std::size_t m,
                  const simd::BatchKernelTable& kernels) {
  st.a32.resize(m);
  st.b32.resize(m);
  st.c32.resize(m);
  st.o32.resize(m);
  st.p32.resize(m);
  widen_u8(s_in, st.a32.data(), m);
  widen_s8(d_in, st.o32.data(), m);
  st.p32[0] = st.o32[0];
  std::copy(st.o32.begin(), st.o32.end() - 1, st.p32.begin() + 1);
  kernels.legall_update(st.a32.data(), st.p32.data(), st.o32.data(), st.c32.data(), m, -1);
  narrow_u8(st.c32.data(), even_out, m);
  // even_next = even shifted left one lane, last lane repeated.
  widen_u8(even_out, st.a32.data(), m);
  std::copy(st.a32.begin() + 1, st.a32.end(), st.b32.begin());
  st.b32[m - 1] = st.a32[m - 1];
  widen_s8(d_in, st.c32.data(), m);
  kernels.legall_predict(st.a32.data(), st.b32.data(), st.c32.data(), st.o32.data(), m, +1);
  narrow_u8(st.o32.data(), odd_out, m);
}

// Forward transform of the cur_n x cur_w top-left region of `buf` (stride w).
void forward_level(LegallScratch& st, std::uint8_t* buf, std::size_t w, std::size_t cur_n,
                   std::size_t cur_w, const simd::BatchKernelTable& kernels) {
  const std::size_t hm = cur_w / 2;
  st.row_even.resize(std::max(hm, cur_w));
  st.row_odd.resize(std::max(hm, cur_w));
  st.row_tmp.resize(std::max(hm, cur_w));
  // Horizontal: deinterleave each region row, lift, store [s | d].
  for (std::size_t y = 0; y < cur_n; ++y) {
    std::uint8_t* row = buf + y * w;
    kernels.deinterleave(row, st.row_even.data(), st.row_odd.data(), hm);
    // even_next: even shifted left one lane, last repeated.
    std::copy(st.row_even.begin() + 1, st.row_even.begin() + static_cast<std::ptrdiff_t>(hm),
              st.row_tmp.begin());
    st.row_tmp[hm - 1] = st.row_even[hm - 1];
    lift_forward(st, st.row_even.data(), st.row_tmp.data(), st.row_odd.data(), row, row + hm, hm,
                 kernels);
  }
  // Vertical: whole region rows are the lanes. Compute the detail rows from
  // the original rows, then the smooth rows from the stored detail rows.
  const std::size_t vm = cur_n / 2;
  st.v_low.resize(vm * cur_w);
  st.v_high.resize(vm * cur_w);
  for (std::size_t i = 0; i < vm; ++i) {
    const std::uint8_t* even = buf + (2 * i) * w;
    const std::uint8_t* even_next = (i + 1 < vm) ? buf + (2 * i + 2) * w : even;
    const std::uint8_t* odd = buf + (2 * i + 1) * w;
    std::uint8_t* d_out = st.v_high.data() + i * cur_w;
    // lift_forward's lanewise d_prev mirror does not apply across rows: the
    // vertical update needs d[i-1] (the previous detail *row*), so run the
    // two steps explicitly.
    st.a32.resize(cur_w);
    st.b32.resize(cur_w);
    st.c32.resize(cur_w);
    st.o32.resize(cur_w);
    st.p32.resize(cur_w);
    widen_row(even, st.a32.data(), cur_w);
    widen_row(even_next, st.b32.data(), cur_w);
    widen_u8(odd, st.c32.data(), cur_w);
    kernels.legall_predict(st.a32.data(), st.b32.data(), st.c32.data(), st.o32.data(), cur_w, -1);
    narrow_u8(st.o32.data(), d_out, cur_w);
  }
  for (std::size_t i = 0; i < vm; ++i) {
    const std::uint8_t* even = buf + (2 * i) * w;
    const std::uint8_t* d_prev = st.v_high.data() + (i == 0 ? 0 : i - 1) * cur_w;
    const std::uint8_t* d_cur = st.v_high.data() + i * cur_w;
    std::uint8_t* s_out = st.v_low.data() + i * cur_w;
    st.a32.resize(cur_w);
    st.o32.resize(cur_w);
    st.p32.resize(cur_w);
    st.c32.resize(cur_w);
    widen_u8(even, st.a32.data(), cur_w);
    widen_s8(d_prev, st.p32.data(), cur_w);
    widen_s8(d_cur, st.o32.data(), cur_w);
    kernels.legall_update(st.a32.data(), st.p32.data(), st.o32.data(), st.c32.data(), cur_w, +1);
    narrow_u8(st.c32.data(), s_out, cur_w);
  }
  for (std::size_t i = 0; i < vm; ++i) {
    std::copy_n(st.v_low.data() + i * cur_w, cur_w, buf + i * w);
    std::copy_n(st.v_high.data() + i * cur_w, cur_w, buf + (vm + i) * w);
  }
}

// Exact inverse of forward_level.
void inverse_level(LegallScratch& st, std::uint8_t* buf, std::size_t w, std::size_t cur_n,
                   std::size_t cur_w, const simd::BatchKernelTable& kernels) {
  const std::size_t vm = cur_n / 2;
  st.v_low.resize(vm * cur_w);
  st.v_high.resize(vm * cur_w);
  for (std::size_t i = 0; i < vm; ++i) {
    std::copy_n(buf + i * w, cur_w, st.v_low.data() + i * cur_w);
    std::copy_n(buf + (vm + i) * w, cur_w, st.v_high.data() + i * cur_w);
  }
  // Vertical inverse: evens from s - update(d), then odds from d + pred.
  for (std::size_t i = 0; i < vm; ++i) {
    const std::uint8_t* s_in = st.v_low.data() + i * cur_w;
    const std::uint8_t* d_prev = st.v_high.data() + (i == 0 ? 0 : i - 1) * cur_w;
    const std::uint8_t* d_cur = st.v_high.data() + i * cur_w;
    st.a32.resize(cur_w);
    st.o32.resize(cur_w);
    st.p32.resize(cur_w);
    st.c32.resize(cur_w);
    widen_u8(s_in, st.a32.data(), cur_w);
    widen_s8(d_prev, st.p32.data(), cur_w);
    widen_s8(d_cur, st.o32.data(), cur_w);
    kernels.legall_update(st.a32.data(), st.p32.data(), st.o32.data(), st.c32.data(), cur_w, -1);
    narrow_u8(st.c32.data(), buf + (2 * i) * w, cur_w);
  }
  for (std::size_t i = 0; i < vm; ++i) {
    const std::uint8_t* even = buf + (2 * i) * w;
    const std::uint8_t* even_next = (i + 1 < vm) ? buf + (2 * i + 2) * w : even;
    const std::uint8_t* d_cur = st.v_high.data() + i * cur_w;
    st.a32.resize(cur_w);
    st.b32.resize(cur_w);
    st.c32.resize(cur_w);
    st.o32.resize(cur_w);
    widen_row(even, st.a32.data(), cur_w);
    widen_row(even_next, st.b32.data(), cur_w);
    widen_s8(d_cur, st.c32.data(), cur_w);
    kernels.legall_predict(st.a32.data(), st.b32.data(), st.c32.data(), st.o32.data(), cur_w, +1);
    narrow_u8(st.o32.data(), buf + (2 * i + 1) * w, cur_w);
  }
  // Horizontal inverse per region row.
  const std::size_t hm = cur_w / 2;
  st.row_even.resize(std::max(hm, cur_w));
  st.row_odd.resize(std::max(hm, cur_w));
  st.row_tmp.resize(std::max(hm, cur_w));
  for (std::size_t y = 0; y < cur_n; ++y) {
    std::uint8_t* row = buf + y * w;
    lift_inverse(st, row, row + hm, st.row_even.data(), st.row_odd.data(), hm, kernels);
    kernels.interleave(st.row_even.data(), st.row_odd.data(), st.row_tmp.data(), hm);
    std::copy_n(st.row_tmp.data(), cur_w, row);
  }
}

class Legall53Backend final : public CodecBackend {
 public:
  Legall53Backend()
      : total_id_(telemetry::Registry::metric("codec.legall53.transcode",
                                              telemetry::MetricKind::Timer, "ns")) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "legall53"; }

  [[nodiscard]] std::unique_ptr<BackendScratch> make_scratch() const override {
    return std::make_unique<LegallScratch>();
  }

  void transcode_band(const std::uint8_t* band, std::size_t n, std::size_t w,
                      const bitpack::ColumnCodecConfig& config, BackendScratch& scratch,
                      std::uint8_t* out, telemetry::Snapshot& metrics,
                      BandTranscodeStats& stats) const override {
    auto& st = static_cast<LegallScratch&>(scratch);
    const auto& ids = StageIds::get();
    const auto& kernels = simd::batch();
    telemetry::Span total(metrics, total_id_);

    stats.reset(n);
    const int levels = levels_for(n, w);
    st.work.assign(band, band + n * w);

    {
      telemetry::Span span(metrics, ids.decompose);
      for (int level = 0; level < levels; ++level) {
        forward_level(st, st.work.data(), w, n >> level, w >> level, kernels);
      }
    }

    // Column codec over the transformed band. The deepest LL region lives in
    // the leftmost w >> levels columns; map the threshold_ll knob onto those
    // (their top halves contain the whole LL pyramid), so lossless-LL
    // ablations keep a protected smooth band here too.
    const std::size_t ll_cols = w >> levels;
    st.col.resize(n);
    st.recon.resize(n * w);
    {
      telemetry::Span span(metrics, ids.encode);
      for (std::size_t x = 0; x < w; ++x) {
        for (std::size_t y = 0; y < n; ++y) st.col[y] = st.work[y * w + x];
        const auto kept = st.coder.code(st.col, config, /*column_is_even=*/x < ll_cols, stats);
        for (std::size_t y = 0; y < n; ++y) st.recon[y * w + x] = kept[y];
      }
    }

    {
      telemetry::Span span(metrics, ids.recompose);
      for (int level = levels - 1; level >= 0; --level) {
        inverse_level(st, st.recon.data(), w, n >> level, w >> level, kernels);
      }
      std::copy(st.recon.begin(), st.recon.end(), out);
    }
  }

 private:
  telemetry::MetricId total_id_;
};

}  // namespace

std::unique_ptr<CodecBackend> make_legall53_backend() {
  return std::make_unique<Legall53Backend>();
}

}  // namespace swc::codec
