#pragma once
// Functional (golden-model) codec for one compressed window column.
//
// A compressed column carries N coefficients split into two sub-band halves
// (top/bottom, see wavelet/column_decomposer.hpp). Its serialized form is:
//   * NBits fields  : 4 bits per sub-band half (2 per column),
//   * BitMap        : 1 bit per coefficient (zero / non-zero),
//   * payload       : NBits least-significant bits of each non-zero
//                     coefficient, in row order, LSB-first.
// which is exactly the management-bit arithmetic of the paper (Section IV-C:
// NBits = 2x4x(W-N) bits, BitMap = (W-N)xN bits for the whole buffer).

#include <cstdint>
#include <span>
#include <vector>

#include "bitpack/bitstream.hpp"

namespace swc::bitpack {

// Where the Bit Packing unit computes NBits relative to thresholding.
// Section IV (algorithm) thresholds first; Section V-B (hardware) computes
// NBits from the raw inputs. PostThreshold is never larger.
enum class NBitsPolicy : std::uint8_t { PostThreshold, PreThreshold };

// Granularity of the NBits field — the Section IV-C design-space ablation.
enum class NBitsGranularity : std::uint8_t {
  PerSubBandColumn,  // paper's choice: one field per column per sub-band
  PerColumn,         // one field for the whole column (fewer mgmt bits)
  PerCoefficient,    // one field per non-zero coefficient (densest payload)
};

struct ColumnCodecConfig {
  int threshold = 0;  // |coef| < threshold => insignificant (0 = lossless)
  NBitsPolicy nbits_policy = NBitsPolicy::PostThreshold;
  NBitsGranularity granularity = NBitsGranularity::PerSubBandColumn;
  // The paper's hardware thresholds every row uniformly, including the LL
  // half of even columns. Setting this false protects LL (ablation knob).
  bool threshold_ll = true;
};

struct EncodedColumn {
  // NBits fields in layout order; each value in [1, 8]. Field count by
  // granularity: PerSubBandColumn = 2, PerColumn = 1, PerCoefficient = one
  // per non-zero coefficient under PostThreshold, or one per coefficient
  // (indexed by row) under PreThreshold — the Section V-B hardware computes
  // NBits from the raw inputs before the threshold comparator resolves
  // significance, so at per-coefficient granularity every coefficient
  // carries a width field sized from the raw value.
  std::vector<std::uint8_t> nbits;
  // One significance bit per coefficient, row order.
  std::vector<std::uint8_t> bitmap;
  // Packed payload bytes (LSB-first) and the exact number of valid bits.
  std::vector<std::uint8_t> payload;
  std::size_t payload_bit_count = 0;

  [[nodiscard]] std::size_t nbits_field_bits() const noexcept { return nbits.size() * 4; }
  [[nodiscard]] std::size_t bitmap_bits() const noexcept { return bitmap.size(); }
  [[nodiscard]] std::size_t management_bits() const noexcept {
    return nbits_field_bits() + bitmap_bits();
  }
  [[nodiscard]] std::size_t total_bits() const noexcept {
    return management_bits() + payload_bit_count;
  }
};

// Calls fn(i, width) for every significant coefficient i of `enc`, in
// packing (row) order, with the payload width its NBits field assigns. This
// is the one mapping from a column's BitMap and NBits fields to payload
// widths: the encoder packs with it, the decoder unpacks with it, and the
// bit accounting (codec backends, core/accounting) splits payload with it.
// The field a coefficient reads, by granularity:
//   PerSubBandColumn: field 0 for the top half, field 1 for the bottom half;
//   PerColumn:        field 0;
//   PerCoefficient:   its row under PreThreshold (one field per row), its
//                     non-zero ordinal under PostThreshold.
// Fields are read with bounds checks: a field table that does not match
// `config` throws std::out_of_range.
template <typename Fn>
void for_each_payload_width(const EncodedColumn& enc, const ColumnCodecConfig& config, Fn&& fn) {
  const std::size_t n = enc.bitmap.size();
  const bool row_indexed = config.nbits_policy == NBitsPolicy::PreThreshold;
  std::size_t ordinal = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!enc.bitmap[i]) continue;
    std::size_t field = 0;
    switch (config.granularity) {
      case NBitsGranularity::PerSubBandColumn:
        field = i < n / 2 ? 0 : 1;
        break;
      case NBitsGranularity::PerColumn:
        break;
      case NBitsGranularity::PerCoefficient:
        field = row_indexed ? i : ordinal;
        break;
    }
    ++ordinal;
    fn(i, static_cast<int>(enc.nbits.at(field)));
  }
}

// Reusable encoder: owns the per-column scratch (thresholded values, bit
// writer) so the steady-state encode loop performs no heap allocation. One
// instance per thread/run; not thread-safe.
class ColumnEncoder {
 public:
  // Encodes one coefficient column into `out`, reusing `out`'s buffers.
  // `column_is_even` selects the sub-band pair (even columns hold LL+LH and
  // are affected by threshold_ll = false). Count must be even and non-zero.
  void encode(std::span<const std::uint8_t> coeffs, const ColumnCodecConfig& config,
              bool column_is_even, EncodedColumn& out);

  // The thresholded column of the last encode(): exactly what ColumnDecoder
  // returns for its output. Valid until the next encode().
  [[nodiscard]] std::span<const std::uint8_t> kept() const noexcept { return kept_; }

 private:
  std::vector<std::uint8_t> kept_;
  BitWriter writer_;
};

// Reusable decoder: decodes into a caller-owned output buffer (reusing its
// capacity). No engine path unpacks (the codec backends use
// ColumnEncoder::kept()); this is the tests' oracle.
class ColumnDecoder {
 public:
  // Reconstructs the (thresholded) coefficient column into `out`. With
  // threshold 0 this is the exact inverse of ColumnEncoder::encode.
  void decode(const EncodedColumn& enc, std::size_t coeff_count,
              const ColumnCodecConfig& config, std::vector<std::uint8_t>& out);
};

// One-shot conveniences wrapping ColumnEncoder/ColumnDecoder (allocate per
// call; use the classes directly on hot paths).
[[nodiscard]] EncodedColumn encode_column(std::span<const std::uint8_t> coeffs,
                                          const ColumnCodecConfig& config,
                                          bool column_is_even = true);

[[nodiscard]] std::vector<std::uint8_t> decode_column(const EncodedColumn& enc,
                                                      std::size_t coeff_count,
                                                      const ColumnCodecConfig& config);

// The thresholded coefficients themselves (what a decoder will see); useful
// for computing reconstruction error without a full decode. The _into form
// reuses `out`'s capacity.
void apply_threshold_into(std::span<const std::uint8_t> coeffs, const ColumnCodecConfig& config,
                          bool column_is_even, std::vector<std::uint8_t>& out);
[[nodiscard]] std::vector<std::uint8_t> apply_threshold(std::span<const std::uint8_t> coeffs,
                                                        const ColumnCodecConfig& config,
                                                        bool column_is_even = true);

}  // namespace swc::bitpack
