#pragma once
// Per-layer metrics of a traced run. Each is timed around a call into one
// layer's public functions from the benchmark's own code (the serve and
// runtime layers carry no benchmark spans), or read from a public accessor
// after the run, or derived from the per-frame records.

#include <vector>

#include "report.hpp"
#include "workload.hpp"

namespace swc::bench {

struct ClosedLoopRates {
  double untraced_fps = 0.0;
  double traced_fps = 0.0;
};

// Sums over every stream of a FrameServer::stats() snapshot: the runtime's
// latency (submit to completion) and the engine.stage.* time inside it.
// Differences of two snapshots cover the frames completed in between.
struct RuntimeTotals {
  double latency_ns = 0.0;
  double stage_ns = 0.0;
  double frames = 0.0;

  [[nodiscard]] static RuntimeTotals of(const runtime::RuntimeStatsSnapshot& rt);
  RuntimeTotals& operator+=(const RuntimeTotals& other);
  RuntimeTotals& operator-=(const RuntimeTotals& other);
};

// Replays run after the clocks stop and add one span per replayed call
// batch to `tracer`. `open_loop` covers the light and heavy phases. Metrics
// a workload's path does not have (the serve.* counters on the engine path,
// runtime.submit_block_us.p50 on the serve path, where the server calls the
// runtime) read 0.
[[nodiscard]] std::vector<Metric> per_layer_metrics(const Workload& w,
                                                    const std::vector<StreamInputs>& inputs,
                                                    const std::vector<FrameRecord>& records,
                                                    const ServerCounters& counters,
                                                    const RuntimeTotals& open_loop,
                                                    ClosedLoopRates rates, Tracer& tracer);

}  // namespace swc::bench
