// swc_benchmark: one workload per process (see benchmark/README.md).
//
//   swc_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--smoke] [--out DIR]
//
// Builds the inputs and reference outputs, sets the server up kSetupReps
// times (setup_s is the median), warms up, then runs kSlices rounds of the
// light and heavy open-loop phases (40 % and 30 % of each round) and the
// closed-loop phase (sized to take about the remaining 30 %). Writes
// <out>/<workload>-seed<N>[-traced].json (and trace_<workload>.json when
// traced), prints a table, and ends stdout with one JSON line. Exit 0 when
// every output check passed, 1 when one failed or the run broke, 2 on bad
// usage, 3 on a machine with fewer than 4 cores.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "generator.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace swc::bench {
namespace {

constexpr double kDrainTimeoutS = 30.0;
constexpr std::size_t kSlices = 5;
constexpr double kMaxStealPct = 2.0;
constexpr double kMaxStartLagMs = 2.0;  // limit on client.start_lag_ms.p99
constexpr unsigned kCoresNeeded = 4;  // generator, event loop, two workers

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 40.0;
  bool trace = false;
  std::string out = ".";
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> v;
    if (arg == "--smoke") {
      o.seconds = 3.0;  // 1 s per phase
    } else if (arg == "--workload" && (v = value())) {
      o.workload = *v;
    } else if (arg == "--seed" && (v = value())) {
      o.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      o.seconds = std::strtod(v->c_str(), nullptr);
    } else if (arg == "--trace" && (v = value())) {
      o.trace = *v == "1";
    } else if (arg == "--out" && (v = value())) {
      o.out = *v;
    } else {
      return std::nullopt;
    }
  }
  if (o.workload.empty() || !(o.seconds >= 1.0)) return std::nullopt;
  return o;
}

unsigned available_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return std::thread::hardware_concurrency();
  return static_cast<unsigned>(CPU_COUNT(&set));
}

double cpu_seconds(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// User + system CPU of the whole process except the calling (generator)
// thread, which polls and so is always busy.
double server_cpu_seconds() { return cpu_seconds(RUSAGE_SELF) - cpu_seconds(RUSAGE_THREAD); }

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Whole-machine CPU time from /proc/stat's "cpu" line: {steal, total}, in
// ticks. Steal is time the hypervisor ran something else on our vCPUs.
std::pair<double, double> host_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                            &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0.0, 0.0};
  double total = 0.0;
  for (const auto x : v) total += static_cast<double>(x);
  return {static_cast<double>(v[7]), total};
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

bool measured(Phase p) { return p == Phase::Light || p == Phase::Heavy || p == Phase::Closed; }

// Output checks. Every frame that fails one is counted once in `failed`.
std::vector<Check> check_outputs(const Workload& w, const std::vector<StreamInputs>& inputs,
                                 const std::vector<FrameRecord>& records,
                                 const std::vector<const Reference*>& expected,
                                 const ServerCounters& counters, std::uint32_t main_instance,
                                 std::uint64_t& failed) {
  std::vector<char> bad(records.size(), 0);
  std::vector<Check> checks;
  const auto check = [&](const char* name, const std::string& detail, auto&& ok) {
    Check c{name, 0, detail};
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (ok(records[i], i)) continue;
      ++c.failed;
      bad[i] = 1;
    }
    checks.push_back(std::move(c));
  };
  check("answered", "every frame sent was completed or refused",
        [](const FrameRecord& r, std::size_t) {
          return r.status == Status::Ok || r.status == Status::Rejected;
        });
  check("payload_bits", "payload bits equal an offline CompressedEngine run of the frame",
        [&](const FrameRecord& r, std::size_t i) {
          return r.status != Status::Ok ||
                 (expected[i] != nullptr && r.payload_bits == expected[i]->payload_bits);
        });
  if (w.path == Path::Engine) {
    check("reconstruction", "output bytes equal a single-thread reference (64-bit hash)",
          [&](const FrameRecord& r, std::size_t i) {
            return r.status != Status::Ok ||
                   (expected[i] != nullptr && r.output_hash == expected[i]->output_hash);
          });
    check("lossless_t0", "T = 0 outputs equal their inputs",
          [&](const FrameRecord& r, std::size_t) {
            const StreamSpec& spec = w.streams[r.stream];
            return r.status != Status::Ok || spec.threshold != 0 || spec.rate.has_value() ||
                   r.output_hash == inputs[r.stream].input_hashes[r.frame];
          });
  }
  if (w.path == Path::Serve) {
    check("bulk_not_refused", "the bulk tier applies backpressure, never refuses",
          [](const FrameRecord& r, std::size_t) { return r.status != Status::Rejected; });
  }
  failed = static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), 1));

  // The server's own count of the completions of the instance the phases ran on.
  std::uint64_t ok = 0;
  for (const auto& r : records) ok += r.instance == main_instance && r.status == Status::Ok;
  const std::uint64_t diff = ok > counters.completed ? ok - counters.completed
                                                     : counters.completed - ok;
  checks.push_back({"server_count",
                    diff,
                    "client ok " + std::to_string(ok) + ", server completed " +
                        std::to_string(counters.completed)});
  failed += diff;
  return checks;
}

// p50 latency (due -> done, ms) of the frames in records[begin, end) that
// completed in `phase`, taken per stream and averaged over streams:
// engine512's streams cost 85-120 ms a frame, and a p50 over all of them
// sits on the edge between two streams' modes, where it jumps. `samples`
// receives the number of frames it covers.
double phase_p50(const std::vector<FrameRecord>& records, std::size_t begin, std::size_t end,
                 Phase phase, const Workload& w, std::size_t& samples) {
  std::vector<std::vector<double>> by_stream(w.streams.size());
  for (std::size_t i = begin; i < end; ++i) {
    const FrameRecord& r = records[i];
    if (r.phase != phase || r.status != Status::Ok) continue;
    by_stream[r.stream].push_back(ms(r.done_ns - r.due_ns));
    ++samples;
  }
  double sum = 0.0;
  std::size_t counted = 0;
  for (const auto& v : by_stream) {
    if (v.empty()) continue;
    sum += quantile(v, 0.50).value;
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

PhaseSummary summarize(Phase phase, const std::vector<FrameRecord>& records) {
  PhaseSummary p;
  p.phase = phase;
  std::vector<double> latency;
  for (const auto& r : records) {
    if (r.phase != phase) continue;
    ++p.sent;
    if (r.status == Status::Ok) {
      ++p.ok;
      latency.push_back(ms(r.done_ns - r.due_ns));
    } else if (r.status == Status::Rejected) {
      ++p.rejected;
    } else {
      ++p.failed;
    }
  }
  p.p50 = quantile(latency, 0.50);
  p.p95 = quantile(latency, 0.95);
  p.p99 = quantile(latency, 0.99);
  p.max = quantile(latency, 1.0);
  return p;
}

int run(const Options& opt, const Workload& w, unsigned cores) {
  std::vector<StreamInputs> inputs = build_inputs(w, opt.seed);
  std::vector<FrameRecord> records;
  Tracer tracer;
  Generator gen(records, w.streams.size());
  const auto make = w.path == Path::Serve ? make_serve_transport : make_engine_transport;

  // The host's speed drifts by tens of percent over seconds (other tenants),
  // so everything is spread over the run: the phases are cut into kSlices
  // rounds and interleaved, and before each round one more server instance
  // is set up (timed) and torn down. The instance the phases run on is the
  // first one set up. Each slice starts with nothing in flight.
  std::vector<double> setup_s;
  std::uint32_t instances = 0;
  const auto set_up = [&] {
    const std::int64_t t0 = now_ns();
    auto t = make(w, inputs, records, tracer, [&gen](std::size_t r) { gen.on_done(r); });
    gen.bind(*t, instances++);
    if (!gen.first_frames(kDrainTimeoutS)) {
      throw std::runtime_error("set-up frames never completed");
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return t;
  };
  std::unique_ptr<Transport> transport = set_up();
  const std::uint32_t main_instance = 0;
  const auto probe_set_up = [&] {
    set_up();  // torn down at once, off the clock
    gen.bind(*transport, main_instance);
  };
  while (setup_s.size() + kSlices < kSetupReps) probe_set_up();

  const double s = opt.seconds;
  const double slice = s / static_cast<double>(kSlices);
  const auto drain = [&gen] {
    if (!gen.drain(kDrainTimeoutS)) throw std::runtime_error("frames stuck in flight for 30 s");
  };
  gen.open_loop(Phase::Warmup, w.light_fps, std::min(2.0, s / 10.0));
  drain();
  // Throughput, CPU cost and p50 latency are medians over the slices, so one
  // slice that ran while the host was slow does not move them.
  const std::size_t closed_frames = std::max(
      kClosedInflight, static_cast<std::size_t>(std::llround(0.3 * slice * w.closed_fps)));
  const double closed_total = static_cast<double>(closed_frames * w.streams.size());
  const auto closed_loop = [&](Phase phase) {
    const double seconds = gen.closed_loop(phase, closed_frames, kDrainTimeoutS);
    if (seconds <= 0.0) throw std::runtime_error("closed-loop frames stuck in flight for 30 s");
    return closed_total / seconds;
  };
  const auto ticks0 = host_ticks();
  std::vector<double> closed_fps, traced_fps, cpu_ms_per_frame;
  std::vector<std::size_t> slice_first;  // index of each slice's first record
  RuntimeTotals open_loop;  // traced runs: the runtime's view of the open-loop frames
  for (std::size_t k = 0; k < kSlices; ++k) {
    probe_set_up();
    const std::size_t first = records.size();
    slice_first.push_back(first);
    const double cpu0 = server_cpu_seconds();
    if (opt.trace) open_loop -= RuntimeTotals::of(transport->counters().runtime);
    tracer.on = opt.trace;
    gen.open_loop(Phase::Light, w.light_fps, 0.4 * slice);
    drain();
    gen.open_loop(Phase::Heavy, w.heavy_fps, 0.3 * slice);
    drain();
    tracer.on = false;
    if (opt.trace) open_loop += RuntimeTotals::of(transport->counters().runtime);
    closed_fps.push_back(closed_loop(Phase::Closed));
    if (opt.trace) {
      tracer.on = true;
      traced_fps.push_back(closed_loop(Phase::ClosedTraced));
      tracer.on = false;
    }
    const auto ok = std::count_if(records.begin() + static_cast<std::ptrdiff_t>(first),
                                  records.end(),
                                  [](const FrameRecord& r) { return r.status == Status::Ok; });
    cpu_ms_per_frame.push_back((server_cpu_seconds() - cpu0) * 1e3 /
                               static_cast<double>(std::max<std::ptrdiff_t>(ok, 1)));
  }
  slice_first.push_back(records.size());
  const auto ticks1 = host_ticks();
  const double total_ticks = ticks1.second - ticks0.second;
  const double steal_pct =
      total_ticks > 0.0 ? 100.0 * (ticks1.first - ticks0.first) / total_ticks : 0.0;
  const ServerCounters counters = transport->counters();
  transport.reset();

  // Expected result of every frame: precomputed for fixed thresholds,
  // replayed for a rate-controlled stream.
  std::vector<const Reference*> expected(records.size(), nullptr);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& refs = inputs[records[i].stream].refs;
    if (!refs.empty()) expected[i] = &refs[records[i].frame];
  }
  std::vector<std::unique_ptr<RateReplay>> replays;
  for (std::size_t st = 0; st < w.streams.size(); ++st) {
    if (!w.streams[st].rate.has_value()) continue;
    replays.push_back(std::make_unique<RateReplay>(w, st, inputs[st]));
    replay_rate_stream(w, st, *replays.back(), records, expected);
  }

  RunResult result;
  result.workload = w.name;
  result.seed = opt.seed;
  result.seconds = s;
  result.traced = opt.trace;
  result.cores = cores;
  result.attempted = records.size();
  result.checks = check_outputs(w, inputs, records, expected, counters, main_instance,
                                result.failed);
  for (const Phase p : {Phase::Setup, Phase::Warmup, Phase::Light, Phase::Heavy, Phase::Closed,
                        Phase::ClosedTraced}) {
    if (p != Phase::ClosedTraced || opt.trace) result.phases.push_back(summarize(p, records));
  }

  // --- end-to-end metrics ---------------------------------------------------
  std::vector<double> start_lag;
  std::uint64_t heavy_sent = 0, heavy_ontime = 0;
  struct PerStream {
    double bits = 0.0, mse = 0.0, max_abs = 0.0;
    std::uint64_t frames = 0;
  };
  std::vector<PerStream> per_stream(w.streams.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const FrameRecord& r = records[i];
    if (r.phase == Phase::Light || r.phase == Phase::Heavy) {
      start_lag.push_back(ms(r.start_ns - r.due_ns));
    }
    if (r.phase == Phase::Heavy) {
      ++heavy_sent;
      heavy_ontime += r.status == Status::Ok && ms(r.done_ns - r.due_ns) <= w.limit_ms;
    }
    if (r.status != Status::Ok || !measured(r.phase) || expected[i] == nullptr) continue;
    PerStream& ps = per_stream[r.stream];
    ps.bits += static_cast<double>(r.payload_bits);
    ps.mse += expected[i]->mse;
    ps.max_abs += expected[i]->max_abs_error;
    ++ps.frames;
  }
  // Quality and rate are per-stream means, averaged over streams, so that
  // which stream happened to complete more frames does not move them.
  const double streams = static_cast<double>(per_stream.size());
  const double pixels = static_cast<double>(w.size * w.size);
  double bpp = 0.0, mse = 0.0, max_abs = 0.0;
  for (const auto& ps : per_stream) {
    const double n = static_cast<double>(std::max<std::uint64_t>(ps.frames, 1));
    bpp += ps.bits / (n * pixels) / streams;
    mse += ps.mse / n / streams;
    max_abs += ps.max_abs / n / streams;
  }
  std::vector<double> light_p50, heavy_p50;
  std::size_t light_samples = 0, heavy_samples = 0;
  for (std::size_t k = 0; k < kSlices; ++k) {
    light_p50.push_back(
        phase_p50(records, slice_first[k], slice_first[k + 1], Phase::Light, w, light_samples));
    heavy_p50.push_back(
        phase_p50(records, slice_first[k], slice_first[k + 1], Phase::Heavy, w, heavy_samples));
    result.slices.push_back({closed_fps[k], cpu_ms_per_frame[k], light_p50[k], heavy_p50[k]});
  }
  const std::string slices = "median of " + std::to_string(kSlices) + " slices";
  const auto p50_detail = [&](std::size_t samples) {
    return slices + " of the streams' mean p50, " + std::to_string(samples) + " samples";
  };

  auto& e2e = result.end_to_end;
  e2e.push_back({"setup_s", median(setup_s), "s",
                 "median of " + std::to_string(setup_s.size()) +
                     " set-ups: server construction to every stream's first frame done"});
  e2e.push_back({"throughput_fps", median(closed_fps), "frames/s",
                 slices + " of " + std::to_string(closed_frames * w.streams.size()) +
                     " closed-loop frames, " + std::to_string(kClosedInflight) +
                     " in flight per stream"});
  e2e.push_back({"latency_p50_ms.light", median(light_p50), "ms", p50_detail(light_samples)});
  e2e.push_back({"latency_p50_ms.heavy", median(heavy_p50), "ms", p50_detail(heavy_samples)});
  e2e.push_back({"ontime_fraction.heavy",
                 static_cast<double>(heavy_ontime) /
                     static_cast<double>(std::max<std::uint64_t>(heavy_sent, 1)),
                 "share",
                 std::to_string(heavy_ontime) + " of " + std::to_string(heavy_sent) +
                     " sent completed within " + fmt(w.limit_ms) + " ms"});
  e2e.push_back({"bits_per_pixel", bpp, "bits/px",
                 "payload bits per frame pixel, mean over streams"});
  e2e.push_back({"mse", mse, "gray2", "reconstruction error, mean over streams"});
  e2e.push_back({"frame_max_abs_error", max_abs, "gray",
                 "worst pixel of each frame, mean over streams"});
  e2e.push_back({"cpu_ms_per_frame", median(cpu_ms_per_frame), "ms",
                 slices + " of user+system CPU of every thread but the generator / frames done"});
  e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB", "ru_maxrss of this process"});

  // Invalid when the generator ran late, or when the hypervisor took more
  // than kMaxStealPct of the vCPUs' time: both make the run measure the host.
  const Quantile lag = quantile(start_lag, 0.99);
  result.valid = lag.value <= kMaxStartLagMs && steal_pct <= kMaxStealPct;
  result.validity = "client.start_lag_ms.p99 " + fmt(lag.value) + " ms (limit " +
                    fmt(kMaxStartLagMs) + " ms), host steal " + fmt(steal_pct) +
                    " % of CPU time (limit " + fmt(kMaxStealPct) + " %)";

  if (opt.trace) {
    tracer.on = true;  // the layer replays
    result.per_layer = per_layer_metrics(w, inputs, records, counters, open_loop,
                                         {median(closed_fps), median(traced_fps)}, tracer);
    tracer.on = false;
  }

  std::filesystem::create_directories(opt.out);
  const std::string stem = opt.out + "/" + w.name + "-seed" + std::to_string(opt.seed);
  write_result(stem + (opt.trace ? "-traced.json" : ".json"), result);
  if (opt.trace) write_trace(opt.out + "/trace_" + w.name + ".json", w, records, tracer);
  if (!result.valid) {
    std::fprintf(stderr, "swc_benchmark: run invalid: %s\n", result.validity.c_str());
  }
  print_result(result);
  return result.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace swc::bench

int main(int argc, char** argv) {
  using namespace swc::bench;
  const auto opt = parse(argc, argv);
  const auto workload = opt ? find_workload(opt->workload) : std::nullopt;
  if (!workload) {
    std::string names;
    for (const auto& n : workload_names()) names += " " + n;
    std::fprintf(stderr,
                 "usage: swc_benchmark --workload NAME [--seed N] [--seconds S >= 1] "
                 "[--trace 0|1] [--smoke] [--out DIR]\nworkloads:%s\n",
                 names.c_str());
    return 2;
  }
  const unsigned cores = available_cores();
  if (cores < kCoresNeeded) {
    std::fprintf(stderr,
                 "swc_benchmark: needs %u cores (generator, event loop, two workers), "
                 "this process may use %u\n",
                 kCoresNeeded, cores);
    return 3;
  }
  try {
    return run(*opt, *workload, cores);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swc_benchmark: %s\n", e.what());
    return 1;
  }
}
