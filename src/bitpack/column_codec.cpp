#include "bitpack/column_codec.hpp"

#include <algorithm>
#include <stdexcept>

#include "bitpack/nbits.hpp"
#include "simd/batch_kernels.hpp"

namespace swc::bitpack {
namespace {

void check_count(std::size_t n) {
  if (n == 0 || n % 2 != 0) {
    throw std::invalid_argument("column codec: coefficient count must be even and non-zero");
  }
}

}  // namespace

void apply_threshold_into(std::span<const std::uint8_t> coeffs, const ColumnCodecConfig& config,
                          bool column_is_even, std::vector<std::uint8_t>& out) {
  check_count(coeffs.size());
  const std::size_t n = coeffs.size();
  const std::size_t half = n / 2;
  out.resize(n);
  const auto& kernels = simd::batch();
  if (column_is_even && !config.threshold_ll) {
    // The LL sub-band (top half of even columns) is protected: copy it
    // through untouched and threshold only the detail half.
    std::copy_n(coeffs.data(), half, out.data());
    kernels.threshold(coeffs.data() + half, out.data() + half, half, config.threshold);
  } else {
    kernels.threshold(coeffs.data(), out.data(), n, config.threshold);
  }
}

std::vector<std::uint8_t> apply_threshold(std::span<const std::uint8_t> coeffs,
                                          const ColumnCodecConfig& config, bool column_is_even) {
  std::vector<std::uint8_t> out;
  apply_threshold_into(coeffs, config, column_is_even, out);
  return out;
}

void ColumnEncoder::encode(std::span<const std::uint8_t> coeffs, const ColumnCodecConfig& config,
                           bool column_is_even, EncodedColumn& out) {
  check_count(coeffs.size());
  const std::size_t n = coeffs.size();
  const std::size_t half = n / 2;
  apply_threshold_into(coeffs, config, column_is_even, kept_);

  // Values NBits is measured over, per policy. PreThreshold mirrors the
  // Section V-B hardware which sizes fields from the raw coefficients.
  const std::span<const std::uint8_t> basis =
      config.nbits_policy == NBitsPolicy::PreThreshold ? coeffs
                                                       : std::span<const std::uint8_t>(kept_);

  out.nbits.clear();
  out.bitmap.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) out.bitmap[i] = kept_[i] != 0 ? 1 : 0;

  // Group widths go through the batched Fig. 7 OR-bus kernel (bit-identical
  // to group_nbits — proven by the nbits and simd fuzz tests).
  const auto& kernels = simd::batch();
  const auto group_field = [&](const std::uint8_t* values, std::size_t count) {
    return static_cast<std::uint8_t>(nbits_from_or_bus(kernels.nbits_or_bus(values, count)));
  };
  switch (config.granularity) {
    case NBitsGranularity::PerSubBandColumn:
      out.nbits.push_back(group_field(basis.data(), half));
      out.nbits.push_back(group_field(basis.data() + half, half));
      break;
    case NBitsGranularity::PerColumn:
      out.nbits.push_back(group_field(basis.data(), n));
      break;
    case NBitsGranularity::PerCoefficient:
      // The hardware's Fig. 7 finder runs before the threshold comparator,
      // so under PreThreshold every coefficient carries a field sized from
      // the raw basis — including coefficients the comparator later zeroes.
      for (std::size_t i = 0; i < n; ++i) {
        if (config.nbits_policy == NBitsPolicy::PreThreshold || out.bitmap[i]) {
          out.nbits.push_back(static_cast<std::uint8_t>(min_bits_u8(basis[i])));
        }
      }
      break;
  }

  for_each_payload_width(out, config,
                         [&](std::size_t i, int width) { writer_.put(kept_[i], width); });
  out.payload_bit_count = writer_.bit_count();
  writer_.finish_into(out.payload);
}

void ColumnDecoder::decode(const EncodedColumn& enc, std::size_t coeff_count,
                           const ColumnCodecConfig& config, std::vector<std::uint8_t>& out) {
  check_count(coeff_count);
  if (enc.bitmap.size() != coeff_count) {
    throw std::invalid_argument("decode_column: bitmap size mismatch");
  }
  out.assign(coeff_count, 0);
  BitReader reader(enc.payload);
  for_each_payload_width(enc, config, [&](std::size_t i, int width) {
    out[i] = sign_extend_u8(reader.get(width), width);
  });
}

EncodedColumn encode_column(std::span<const std::uint8_t> coeffs, const ColumnCodecConfig& config,
                            bool column_is_even) {
  ColumnEncoder encoder;
  EncodedColumn enc;
  encoder.encode(coeffs, config, column_is_even, enc);
  return enc;
}

std::vector<std::uint8_t> decode_column(const EncodedColumn& enc, std::size_t coeff_count,
                                        const ColumnCodecConfig& config) {
  ColumnDecoder decoder;
  std::vector<std::uint8_t> out;
  decoder.decode(enc, coeff_count, config, out);
  return out;
}

}  // namespace swc::bitpack
