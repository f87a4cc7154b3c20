#include "codec/backend.hpp"

#include <array>
#include <stdexcept>

#include "codec/builtin.hpp"

namespace swc::codec {
namespace {

// The built-in backends in name order, built once on first use (a function
// static rather than static initializers in each backend's translation unit,
// which a static-library link is free to drop).
const std::array<std::shared_ptr<const CodecBackend>, 3>& builtins() {
  static const std::array<std::shared_ptr<const CodecBackend>, 3> table = {
      make_haar_backend(), make_legall53_backend(), make_microshift_backend()};
  return table;
}

const std::shared_ptr<const CodecBackend>* find(std::string_view name) {
  for (const auto& backend : builtins()) {
    if (backend->name() == name) return &backend;
  }
  return nullptr;
}

}  // namespace

const StageIds& StageIds::get() {
  using telemetry::MetricKind;
  using telemetry::Registry;
  // Same names core::EngineMetricIds interns — intentionally, so the ids are
  // identical and RunStats accessors see every backend's stage timers.
  static const StageIds ids = {
      Registry::metric("engine.stage.decompose", MetricKind::Timer, "ns"),
      Registry::metric("engine.stage.encode", MetricKind::Timer, "ns"),
      Registry::metric("engine.stage.recompose", MetricKind::Timer, "ns"),
  };
  return ids;
}

std::shared_ptr<const CodecBackend> BackendRegistry::make(std::string_view name) {
  const auto* backend = find(name);
  if (backend == nullptr) {
    throw std::invalid_argument("BackendRegistry: unknown codec backend \"" + std::string(name) +
                                "\"");
  }
  return *backend;
}

bool BackendRegistry::contains(std::string_view name) { return find(name) != nullptr; }

std::vector<std::string> BackendRegistry::names() {
  std::vector<std::string> out;
  for (const auto& backend : builtins()) out.emplace_back(backend->name());
  return out;  // the table is in name order
}

namespace detail {

std::span<const std::uint8_t> ColumnCoder::code(std::span<const std::uint8_t> coeffs,
                                                const bitpack::ColumnCodecConfig& config,
                                                bool column_is_even, BandTranscodeStats& stats) {
  encoder_.encode(coeffs, config, column_is_even, encoded_);
  stats.payload_bits += encoded_.payload_bit_count;
  stats.management_bits += encoded_.management_bits();
  bitpack::for_each_payload_width(encoded_, config, [&](std::size_t i, int width) {
    stats.stream_bits[i] += static_cast<std::size_t>(width);
  });
  ++stats.columns;
  return encoder_.kept();
}

}  // namespace detail

}  // namespace swc::codec
