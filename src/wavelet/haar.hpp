#pragma once
// Single-level integer Haar wavelet transform (IWT) as lifting steps.
//
// Paper equations (Section V-A):
//   H(i,j) = X(i,j) - X(i,j+1)                                  (2)
//   L(i,j) = X(i,j+1) + H(i,j)/2   (/2 = arithmetic shift)      (1)
// The printed inverse, Eqs. (3)/(4), has a sign typo; the exact lifting
// inverse is
//   X(i,j+1) = L - (H >> 1),  X(i,j) = X(i,j+1) + H
// which round-trips bit-exactly (tested).
//
// Two arithmetic modes are provided:
//  * Wrap8 ("paper mode"): all values live in 8-bit registers and wrap
//    mod 256, exactly like the hardware in the paper. Lifting steps of the
//    form a' = a +/- f(b) are invertible in Z/256Z, so even wrapped
//    coefficients reconstruct exactly at threshold 0. This is the key fact
//    that makes the paper's 8-bit datapath lossless.
//  * Wide: coefficients kept in int (no wrap); the reference model, and the
//    colour front-end's transform for 9-bit RCT chroma (core/color.cpp).

#include <cstdint>
#include <utility>

namespace swc::wavelet {

// ---------------------------------------------------------------------------
// Wrap8 (paper-mode) lifting. Values are stored as uint8_t; detail
// coefficients are *interpreted* as signed two's-complement when thresholding
// or bit-counting, via as_signed().
// ---------------------------------------------------------------------------

struct HaarPairU8 {
  std::uint8_t l;  // low-pass (approximation)
  std::uint8_t h;  // high-pass (detail), two's-complement
};

[[nodiscard]] constexpr std::int8_t as_signed(std::uint8_t v) noexcept {
  return static_cast<std::int8_t>(v);
}
[[nodiscard]] constexpr std::uint8_t as_stored(std::int8_t v) noexcept {
  return static_cast<std::uint8_t>(v);
}

// Arithmetic shift right by one of the stored (two's-complement) value.
[[nodiscard]] constexpr std::uint8_t asr1_u8(std::uint8_t v) noexcept {
  return static_cast<std::uint8_t>(static_cast<std::int8_t>(v) >> 1);
}

[[nodiscard]] constexpr HaarPairU8 haar_forward_u8(std::uint8_t x0, std::uint8_t x1) noexcept {
  const auto h = static_cast<std::uint8_t>(x0 - x1);
  const auto l = static_cast<std::uint8_t>(x1 + asr1_u8(h));
  return {l, h};
}

[[nodiscard]] constexpr std::pair<std::uint8_t, std::uint8_t> haar_inverse_u8(
    std::uint8_t l, std::uint8_t h) noexcept {
  const auto x1 = static_cast<std::uint8_t>(l - asr1_u8(h));
  const auto x0 = static_cast<std::uint8_t>(x1 + h);
  return {x0, x1};
}

// 2-D transform of one 2x2 block, built from four 1-D lifting blocks exactly
// as Fig. 5: horizontal stage on each row, then vertical stage on the L's
// (top block) and on the H's (bottom block).
struct HaarBlockU8 {
  std::uint8_t ll;  // approximation
  std::uint8_t lh;  // detail of the low-pass pair (vertical detail band)
  std::uint8_t hl;  // low-pass of the detail pair (horizontal detail band)
  std::uint8_t hh;  // diagonal detail
};

[[nodiscard]] constexpr HaarBlockU8 haar2d_forward_u8(std::uint8_t x00, std::uint8_t x01,
                                                      std::uint8_t x10, std::uint8_t x11) noexcept {
  const HaarPairU8 row0 = haar_forward_u8(x00, x01);
  const HaarPairU8 row1 = haar_forward_u8(x10, x11);
  const HaarPairU8 low = haar_forward_u8(row0.l, row1.l);   // top second-stage block
  const HaarPairU8 high = haar_forward_u8(row0.h, row1.h);  // bottom second-stage block
  return {low.l, low.h, high.l, high.h};
}

struct PixelBlockU8 {
  std::uint8_t x00, x01, x10, x11;
};

[[nodiscard]] constexpr PixelBlockU8 haar2d_inverse_u8(const HaarBlockU8& c) noexcept {
  const auto [l0, l1] = haar_inverse_u8(c.ll, c.lh);
  const auto [h0, h1] = haar_inverse_u8(c.hl, c.hh);
  const auto [x00, x01] = haar_inverse_u8(l0, h0);
  const auto [x10, x11] = haar_inverse_u8(l1, h1);
  return {x00, x01, x10, x11};
}

// ---------------------------------------------------------------------------
// Wide-mode lifting on plain ints (no wraparound). Reference model.
// ---------------------------------------------------------------------------

struct HaarPair {
  int l;
  int h;
};

[[nodiscard]] constexpr HaarPair haar_forward(int x0, int x1) noexcept {
  const int h = x0 - x1;
  const int l = x1 + (h >> 1);  // floor division by 2 (C++20 guarantees ASR)
  return {l, h};
}

[[nodiscard]] constexpr std::pair<int, int> haar_inverse(int l, int h) noexcept {
  const int x1 = l - (h >> 1);
  const int x0 = x1 + h;
  return {x0, x1};
}

struct HaarBlock {
  int ll, lh, hl, hh;
};

[[nodiscard]] constexpr HaarBlock haar2d_forward(int x00, int x01, int x10, int x11) noexcept {
  const HaarPair row0 = haar_forward(x00, x01);
  const HaarPair row1 = haar_forward(x10, x11);
  const HaarPair low = haar_forward(row0.l, row1.l);
  const HaarPair high = haar_forward(row0.h, row1.h);
  return {low.l, low.h, high.l, high.h};
}

struct PixelBlock {
  int x00, x01, x10, x11;
};

[[nodiscard]] constexpr PixelBlock haar2d_inverse(const HaarBlock& c) noexcept {
  const auto [l0, l1] = haar_inverse(c.ll, c.lh);
  const auto [h0, h1] = haar_inverse(c.hl, c.hh);
  const auto [x00, x01] = haar_inverse(l0, h0);
  const auto [x10, x11] = haar_inverse(l1, h1);
  return {x00, x01, x10, x11};
}

}  // namespace swc::wavelet
