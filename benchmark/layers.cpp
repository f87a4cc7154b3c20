#include "layers.hpp"

#include <cmath>
#include <string>

#include "codec/backend.hpp"
#include "core/streaming_engine.hpp"
#include "hw/pipeline_spec.hpp"
#include "image/metrics.hpp"
#include "resources/composition.hpp"
#include "resources/device.hpp"
#include "runtime/stats.hpp"
#include "serve/protocol.hpp"
#include "stats.hpp"

namespace swc::bench {
namespace {

struct BackendName {
  const char* name;
  const char* span;  // Tracer names must be literals
};
constexpr BackendName kBackends[] = {
    {"haar", "codec.haar.transcode_band"},
    {"legall53", "codec.legall53.transcode_band"},
    {"microshift", "codec.microshift.transcode_band"},
};
constexpr int kReplayThreshold = 2;
constexpr std::size_t kRateReplayFrames = 256;

// Median per-call time (us) of `fn`, called at least 20 times and for at
// least `min_seconds`. The whole batch is one span on the replay track.
template <typename Fn>
double median_call_us(Tracer& tracer, const char* name, Fn&& fn, double min_seconds = 0.05) {
  std::vector<double> us;
  const std::int64_t begin = now_ns();
  const std::int64_t stop = begin + static_cast<std::int64_t>(min_seconds * 1e9);
  while (us.size() < 20 || now_ns() < stop) {
    const std::int64_t t0 = now_ns();
    fn();
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  tracer.add(name, kReplayTid, 0, begin, now_ns());
  return median(std::move(us));
}

void noop_sink(std::size_t, std::size_t, const core::WindowView&) {}

// Single-thread CompressedEngine over every stream's frames (at each
// stream's configured threshold), repeated until 0.2 s have passed.
void replay_engine(const Workload& w, const std::vector<StreamInputs>& inputs, Tracer& tracer,
                   std::vector<Metric>& out) {
  std::vector<core::CompressedEngine> engines;
  for (std::size_t s = 0; s < w.streams.size(); ++s) engines.emplace_back(w.engine_config(s));
  core::CompressedEngine::Scratch scratch;
  telemetry::Snapshot stages;
  std::int64_t busy_ns = 0;
  std::size_t frames = 0;
  const std::int64_t stop = now_ns() + 200'000'000;
  do {
    for (std::size_t s = 0; s < engines.size(); ++s) {
      for (const auto& frame : inputs[s].frames) {
        const std::int64_t t0 = now_ns();
        const auto run = engines[s].run_with_codec(frame, engines[s].config().codec, noop_sink,
                                                   scratch);
        const std::int64_t t1 = now_ns();
        tracer.add("core.CompressedEngine.run_with_codec", kReplayTid, 0, t0, t1);
        busy_ns += t1 - t0;
        stages.merge(run.stats.metrics);
        ++frames;
      }
    }
  } while (now_ns() < stop);
  const double n = static_cast<double>(frames);
  const auto& ids = core::EngineMetricIds::get();
  out.push_back({"core.engine_ms_per_frame", static_cast<double>(busy_ns) / 1e6 / n, "ms",
                 std::to_string(frames) + " single-thread frames"});
  const std::pair<const char*, telemetry::MetricId> stage_ids[] = {
      {"core.stage.decompose_ms_per_frame", ids.stage_decompose},
      {"core.stage.encode_ms_per_frame", ids.stage_encode},
      {"core.stage.decode_ms_per_frame", ids.stage_decode},
      {"core.stage.recompose_ms_per_frame", ids.stage_recompose},
  };
  for (const auto& [name, id] : stage_ids) {
    out.push_back({name, static_cast<double>(stages.sum(id)) / 1e6 / n, "ms",
                   "engine.stage.* of the same frames"});
  }
}

// How far the MSE rate controller holds its target: mean |achieved/target - 1|
// in percent over kRateReplayFrames frames of the rate-controlled stream's
// inputs in a loop (stream 0's where the workload has none). On 256² and
// 512² content no threshold lands inside the 5 % dead band, so the
// controller alternates between two thresholds and never reports
// convergence; this error is what a change to it would move. The
// per-frame results are memoized: one engine run per (frame, threshold).
double replay_rate_error_pct(const Workload& w, const std::vector<StreamInputs>& inputs) {
  std::size_t stream = 0;
  core::RateControlConfig rate = mse_rate_control();
  for (std::size_t s = 0; s < w.streams.size(); ++s) {
    if (w.streams[s].rate.has_value()) {
      stream = s;
      rate = *w.streams[s].rate;
    }
  }
  RateReplay replay(w, stream, inputs[stream]);
  core::RateController controller(rate);
  double error = 0.0;
  for (std::size_t k = 0; k < kRateReplayFrames; ++k) {
    const auto frame = static_cast<std::uint32_t>(k % kFramesPerStream);
    const double achieved = replay.at(frame, controller.threshold()).mse;
    error += std::abs(achieved / rate.target - 1.0);
    controller.observe(achieved);
  }
  return 100.0 * error / static_cast<double>(kRateReplayFrames);
}

// CodecBackend::transcode_band on N-row bands cut from the inputs (top,
// middle and bottom of every frame) at T = 2, plus each backend's
// reconstruction error over the first frame of every stream.
void replay_codecs(const Workload& w, const std::vector<StreamInputs>& inputs, Tracer& tracer,
                   std::vector<Metric>& out) {
  const std::size_t n = w.window;
  const std::size_t width = w.size;
  std::vector<const std::uint8_t*> bands;
  for (const auto& in : inputs) {
    for (const auto& frame : in.frames) {
      for (const std::size_t row : {std::size_t{0}, (w.size - n) / 2, w.size - n}) {
        bands.push_back(frame.pixels().data() + row * width);
      }
    }
  }
  bitpack::ColumnCodecConfig codec;
  codec.threshold = kReplayThreshold;
  for (const auto& [name, span] : kBackends) {
    const auto backend = codec::BackendRegistry::make(name);
    const auto scratch = backend->make_scratch();
    std::vector<std::uint8_t> band_out(n * width);
    telemetry::Snapshot metrics;
    codec::BandTranscodeStats stats;
    double payload = 0.0;
    double management = 0.0;
    for (const auto* band : bands) {
      backend->transcode_band(band, n, width, codec, *scratch, band_out.data(), metrics, stats);
      payload += static_cast<double>(stats.payload_bits);
      management += static_cast<double>(stats.management_bits);
    }
    std::size_t next = 0;
    const double us = median_call_us(tracer, span, [&] {
      backend->transcode_band(bands[next], n, width, codec, *scratch, band_out.data(), metrics,
                              stats);
      next = (next + 1) % bands.size();
    });

    core::EngineConfig config = w.engine_config(0);
    config.backend = name;
    config.codec.threshold = kReplayThreshold;
    const core::CompressedEngine engine(config);
    double mse = 0.0;
    int max_abs = 0;
    for (const auto& in : inputs) {
      const auto run = engine.run_reentrant(in.frames[0], noop_sink);
      mse += image::mse(in.frames[0], run.reconstructed);
      max_abs = std::max(max_abs, image::max_abs_error(in.frames[0], run.reconstructed));
    }

    const double pixels = static_cast<double>(bands.size() * n * width);
    const std::string prefix = std::string("codec.") + name + ".";
    const std::string how = std::to_string(bands.size()) + " bands at T=2";
    out.push_back({prefix + "transcode_us_per_band", us, "us", "median over " + how});
    out.push_back({prefix + "payload_bits_per_pixel", payload / pixels, "bits/px", how});
    out.push_back({prefix + "management_bits_per_pixel", management / pixels, "bits/px", how});
    out.push_back({prefix + "mse", mse / static_cast<double>(inputs.size()), "gray2",
                   "frame 0 of each stream at T=2"});
    out.push_back({prefix + "max_abs_error", static_cast<double>(max_abs), "gray",
                   "frame 0 of each stream at T=2"});
  }
}

bool is_open_loop(Phase p) { return p == Phase::Light || p == Phase::Heavy; }

}  // namespace

RuntimeTotals RuntimeTotals::of(const runtime::RuntimeStatsSnapshot& rt) {
  const auto& ids = core::EngineMetricIds::get();
  RuntimeTotals t;
  for (const auto& stream : rt.streams) {
    t.latency_ns += static_cast<double>(stream.latency.hist.summary.sum);
    t.frames += static_cast<double>(stream.latency.count());
    for (const auto id :
         {ids.stage_decompose, ids.stage_encode, ids.stage_decode, ids.stage_recompose}) {
      t.stage_ns += static_cast<double>(stream.metrics.sum(id));
    }
  }
  return t;
}

RuntimeTotals& RuntimeTotals::operator+=(const RuntimeTotals& other) {
  latency_ns += other.latency_ns;
  stage_ns += other.stage_ns;
  frames += other.frames;
  return *this;
}

RuntimeTotals& RuntimeTotals::operator-=(const RuntimeTotals& other) {
  latency_ns -= other.latency_ns;
  stage_ns -= other.stage_ns;
  frames -= other.frames;
  return *this;
}

std::vector<Metric> per_layer_metrics(const Workload& w, const std::vector<StreamInputs>& inputs,
                                      const std::vector<FrameRecord>& records,
                                      const ServerCounters& counters,
                                      const RuntimeTotals& open_loop, ClosedLoopRates rates,
                                      Tracer& tracer) {
  // Open-loop frames only: in the closed loop a frame is due when it is sent.
  std::vector<double> start_lag, send_block, server, unattributed, submit_us;
  for (const auto& r : records) {
    if (!is_open_loop(r.phase)) continue;
    start_lag.push_back(static_cast<double>(r.start_ns - r.due_ns) / 1e6);
    send_block.push_back(static_cast<double>(r.handoff_ns - r.due_ns) / 1e6);
    if (w.path == Path::Engine) {
      submit_us.push_back(static_cast<double>(r.handoff_ns - r.start_ns) / 1e3);
    }
    if (r.status != Status::Ok) continue;
    server.push_back(static_cast<double>(r.server_ns) / 1e6);
    // The server's clock starts once it has read the whole frame; the
    // runtime's starts inside submit_frame.
    const std::int64_t server_start = w.path == Path::Serve ? r.handoff_ns : r.start_ns;
    unattributed.push_back(
        static_cast<double>(r.done_ns - server_start - static_cast<std::int64_t>(r.server_ns)) /
        1e6);
  }
  std::vector<Metric> out;
  out.push_back(latency_metric("client.start_lag_ms.p99", quantile(start_lag, 0.99)));
  out.push_back(latency_metric("client.send_block_ms.p95", quantile(send_block, 0.95)));
  out.push_back(latency_metric("serve.server_latency_ms.p50", quantile(server, 0.50)));
  out.push_back(latency_metric("serve.server_latency_ms.p95", quantile(server, 0.95)));
  out.push_back(latency_metric("serve.unattributed_ms.p50", quantile(unattributed, 0.50)));

  const auto& frame = inputs[0].frames[0];
  std::vector<std::uint8_t> wire;
  const double encode_us = median_call_us(tracer, "serve.protocol.encode_message", [&] {
    wire = serve::encode_message(serve::MsgType::SubmitFrame, 1, 1, frame.pixels());
  });
  std::size_t parsed = 0;
  const double parse_us = median_call_us(tracer, "serve.protocol.FrameParser.feed", [&] {
    serve::FrameParser parser;
    parser.feed(wire, [&](serve::Message&&) { ++parsed; });
  });
  if (parsed == 0) throw std::runtime_error("FrameParser rejected an encode_message frame");
  const std::string one_frame =
      "one " + std::to_string(w.size) + "x" + std::to_string(w.size) + " SUBMIT_FRAME";
  out.push_back({"serve.protocol.encode_us", encode_us, "us", one_frame});
  out.push_back({"serve.protocol.parse_us", parse_us, "us", one_frame});
  out.push_back({"serve.rejected_busy", static_cast<double>(counters.rejected_busy), "count",
                 "Server::serve_metrics"});
  out.push_back({"serve.read_pauses", static_cast<double>(counters.read_pauses), "count",
                 "Server::serve_metrics"});
  out.push_back({"serve.parked_frames_max", static_cast<double>(counters.parked_frames_max),
                 "count", "Server::serve_metrics"});

  std::vector<hw::PipelineSpec> specs;
  for (std::size_t s = 0; s < w.streams.size(); ++s) {
    specs.push_back(hw::PipelineSpec::from_engine(w.engine_config(s)));
  }
  // Serve admission trial-adds each HELLO's pipeline and fits the whole
  // composition (SessionManager::handle_hello).
  const double admission_us = median_call_us(tracer, "resources.Composition.add+fit", [&] {
    resources::Composition planner;
    for (const auto& spec : specs) {
      planner.add(spec);
      (void)planner.fit(resources::kXC7Z020);
    }
  });
  out.push_back({"resources.admission_us_per_hello",
                 admission_us / static_cast<double>(specs.size()), "us",
                 "Composition::add + fit per HELLO, XC7Z020"});

  out.push_back({"runtime.queue_wait_ms.mean",
                 (open_loop.latency_ns - open_loop.stage_ns) /
                     std::max(open_loop.frames, 1.0) / 1e6,
                 "ms", "open-loop frames, FrameServer::stats: latency - engine.stage.* time"});
  out.push_back(latency_metric("runtime.submit_block_us.p50", quantile(submit_us, 0.50), "us"));

  const runtime::RuntimeStatsSnapshot& rt = counters.runtime;
  const double completed = std::max<double>(1.0, static_cast<double>(rt.frames_completed));
  std::uint64_t allocs = 0;
  std::uint64_t reuses = 0;
  for (const auto& shard : rt.shards) {
    allocs += shard.arena.allocs;
    reuses += shard.arena.reuses;
  }
  out.push_back({"runtime.worker_utilization", rt.mean_worker_utilization(), "ratio",
                 "FrameServer::stats, mean over workers"});
  out.push_back({"runtime.queue_high_water", static_cast<double>(rt.queue_high_water), "count",
                 "FrameServer::stats"});
  out.push_back({"runtime.parks_per_frame", static_cast<double>(rt.total_parks()) / completed,
                 "ratio", "FrameServer::stats"});
  out.push_back({"runtime.steals_per_frame", static_cast<double>(rt.total_steals()) / completed,
                 "ratio", "FrameServer::stats"});
  out.push_back({"runtime.arena.reuse_ratio",
                 allocs + reuses == 0 ? 0.0
                                      : static_cast<double>(reuses) /
                                            static_cast<double>(allocs + reuses),
                 "ratio", "reuses / (allocs + reuses)"});

  replay_engine(w, inputs, tracer, out);
  out.push_back({"core.rate_control.target_error_pct", replay_rate_error_pct(w, inputs), "%",
                 "mean |MSE / 2.0 - 1| over 256 replayed frames"});
  replay_codecs(w, inputs, tracer, out);
  out.push_back({"telemetry.trace_overhead_pct",
                 100.0 * (rates.untraced_fps - rates.traced_fps) / rates.untraced_fps, "%",
                 "closed loop untraced vs traced, same process"});
  return out;
}

}  // namespace swc::bench
