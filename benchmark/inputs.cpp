#include <future>
#include <string_view>

#include "image/metrics.hpp"
#include "image/synthetic.hpp"
#include "workload.hpp"

namespace swc::bench {
namespace {

// Why each workload exists is recorded in benchmark/README.md. The heavy
// rate stays near half of what two workers sustain when the host runs
// fast, so that when it runs a third slower the queue still drains.
std::vector<Workload> workload_table() {
  const StreamSpec haar2{"haar", 2, std::nullopt};
  return {
      {"cam256", Path::Serve, 256, 16, {haar2, haar2, haar2, haar2}, 6.0, 10.0, 25.0, 100.0},
      {"engine512", Path::Engine, 512, 16,
       {{"haar", 0, std::nullopt}, {"legall53", 2, std::nullopt}, {"microshift", 2, std::nullopt},
        {"haar", 2, mse_rate_control()}},
       1.25, 2.5, 5.25, 500.0},
  };
}

Reference make_reference(const core::CompressedEngine& engine, int threshold,
                         const image::ImageU8& frame, core::CompressedEngine::Scratch& scratch) {
  bitpack::ColumnCodecConfig codec = engine.config().codec;
  codec.threshold = threshold;
  auto run = engine.run_with_codec(
      frame, codec, [](std::size_t, std::size_t, const core::WindowView&) {}, scratch);
  Reference ref;
  ref.payload_bits = run.stats.total_payload_bits();
  ref.output_hash = hash_pixels(run.reconstructed);
  ref.mse = image::mse(frame, run.reconstructed);
  ref.max_abs_error = image::max_abs_error(frame, run.reconstructed);
  return ref;
}

StreamInputs build_stream(const Workload& w, std::uint64_t seed, std::size_t stream) {
  StreamInputs in;
  in.frames = image::make_places_like_set(w.size, w.size, kFramesPerStream, seed * 1000 + stream);
  for (std::size_t f = 0; f < kFramesPerStream; ++f) in.input_hashes[f] = hash_pixels(in.frames[f]);
  if (w.path == Path::Serve) {
    for (const auto& frame : in.frames) {
      in.wires.push_back(serve::encode_message(serve::MsgType::SubmitFrame, 0, 0, frame.pixels()));
    }
  }
  if (!w.streams[stream].rate.has_value()) {
    const core::CompressedEngine engine(w.engine_config(stream));
    core::CompressedEngine::Scratch scratch;
    for (const auto& frame : in.frames) {
      in.refs.push_back(make_reference(engine, w.streams[stream].threshold, frame, scratch));
    }
  }
  return in;
}

}  // namespace

core::RateControlConfig mse_rate_control() {
  core::RateControlConfig rate;
  rate.mode = core::RateControlMode::Mse;
  rate.target = 2.0;
  rate.initial_threshold = 2;
  return rate;
}

std::optional<Workload> find_workload(const std::string& name) {
  for (auto& w : workload_table()) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& w : workload_table()) names.push_back(w.name);
  return names;
}

const char* to_string(Phase phase) noexcept {
  switch (phase) {
    case Phase::Setup: return "setup";
    case Phase::Warmup: return "warmup";
    case Phase::Light: return "light";
    case Phase::Heavy: return "heavy";
    case Phase::Closed: return "closed";
    case Phase::ClosedTraced: return "closed_traced";
  }
  return "?";
}

std::uint64_t hash_pixels(const image::ImageU8& img) noexcept {
  const auto px = img.pixels();
  return std::hash<std::string_view>{}(
      std::string_view(reinterpret_cast<const char*>(px.data()), px.size()));
}

std::vector<StreamInputs> build_inputs(const Workload& w, std::uint64_t seed) {
  std::vector<std::future<StreamInputs>> jobs;
  for (std::size_t s = 0; s < w.streams.size(); ++s) {
    jobs.push_back(
        std::async(std::launch::async, [&w, seed, s] { return build_stream(w, seed, s); }));
  }
  std::vector<StreamInputs> inputs;
  for (auto& job : jobs) inputs.push_back(job.get());
  return inputs;
}

RateReplay::RateReplay(const Workload& w, std::size_t stream, const StreamInputs& in)
    : in_(in), engine_(w.engine_config(stream)) {}

const Reference& RateReplay::at(std::uint32_t frame, int threshold) {
  const auto key = std::make_pair(frame, threshold);
  auto it = memo_.find(key);
  if (it == memo_.end()) {
    it = memo_.emplace(key, make_reference(engine_, threshold, in_.frames[frame], scratch_)).first;
  }
  return it->second;
}

void replay_rate_stream(const Workload& w, std::size_t stream, RateReplay& replay,
                        const std::vector<FrameRecord>& records,
                        std::vector<const Reference*>& expected) {
  // One controller per server instance: each instance opened a fresh stream.
  std::map<std::uint32_t, core::RateController> controllers;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const FrameRecord& r = records[i];
    // Refused frames never reached the stream, so its controller never saw them.
    if (r.stream != stream || r.status != Status::Ok) continue;
    auto& controller = controllers.try_emplace(r.instance, *w.streams[stream].rate).first->second;
    const Reference& ref = replay.at(r.frame, controller.threshold());
    expected[i] = &ref;
    controller.observe(ref.mse);
  }
}

}  // namespace swc::bench
