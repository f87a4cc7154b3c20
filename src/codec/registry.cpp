#include "codec/backend.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "codec/builtin.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"

namespace swc::codec {
namespace {

struct RegistryState {
  swc::Mutex mutex;
  // Factories plus a memoized instance per name: backends are immutable, so
  // every engine selecting "haar" can share one object.
  std::map<std::string, BackendRegistry::Factory, std::less<>> factories SWC_GUARDED_BY(mutex);
  std::map<std::string, std::shared_ptr<const CodecBackend>, std::less<>> instances
      SWC_GUARDED_BY(mutex);
};

RegistryState& state() {
  static RegistryState s;
  return s;
}

void register_locked(RegistryState& s, std::string name, BackendRegistry::Factory factory)
    SWC_REQUIRES(s.mutex) {
  if (name.empty()) throw std::invalid_argument("BackendRegistry: empty backend name");
  if (!s.factories.emplace(std::move(name), std::move(factory)).second) {
    throw std::invalid_argument("BackendRegistry: backend already registered");
  }
}

// Built-ins are registered explicitly (not via static initializers in their
// own translation units, which a static-library link is free to drop).
void ensure_builtins(RegistryState& s) SWC_REQUIRES(s.mutex) {
  if (!s.factories.empty()) return;
  register_locked(s, "haar", [] { return make_haar_backend(); });
  register_locked(s, "legall53", [] { return make_legall53_backend(); });
  register_locked(s, "microshift", [] { return make_microshift_backend(); });
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
      Registry::metric("engine.stage.decode", MetricKind::Timer, "ns"),
      Registry::metric("engine.stage.recompose", MetricKind::Timer, "ns"),
  };
  return ids;
}

void BackendRegistry::register_backend(std::string name, Factory factory) {
  RegistryState& s = state();
  swc::MutexLock lock(s.mutex);
  ensure_builtins(s);
  register_locked(s, std::move(name), std::move(factory));
}

std::shared_ptr<const CodecBackend> BackendRegistry::make(std::string_view name) {
  RegistryState& s = state();
  swc::MutexLock lock(s.mutex);
  ensure_builtins(s);
  if (auto cached = s.instances.find(name); cached != s.instances.end()) {
    return cached->second;
  }
  auto it = s.factories.find(name);
  if (it == s.factories.end()) {
    throw std::invalid_argument("BackendRegistry: unknown codec backend \"" + std::string(name) +
                                "\"");
  }
  std::shared_ptr<const CodecBackend> backend = it->second();
  if (!backend) throw std::logic_error("BackendRegistry: factory returned null");
  s.instances.emplace(std::string(name), backend);
  return backend;
}

bool BackendRegistry::contains(std::string_view name) {
  RegistryState& s = state();
  swc::MutexLock lock(s.mutex);
  ensure_builtins(s);
  return s.factories.find(name) != s.factories.end();
}

std::vector<std::string> BackendRegistry::names() {
  RegistryState& s = state();
  swc::MutexLock lock(s.mutex);
  ensure_builtins(s);
  std::vector<std::string> out;
  out.reserve(s.factories.size());
  for (const auto& [name, factory] : s.factories) out.push_back(name);
  return out;  // std::map iterates sorted
}

namespace detail {

void account_column(const bitpack::EncodedColumn& enc, const bitpack::ColumnCodecConfig& config,
                    BandTranscodeStats& stats) {
  stats.payload_bits += enc.payload_bit_count;
  stats.management_bits += enc.management_bits();
  bitpack::for_each_payload_width(enc, config, [&](std::size_t i, int width) {
    stats.stream_bits[i] += static_cast<std::size_t>(width);
  });
}

}  // namespace detail

}  // namespace swc::codec
