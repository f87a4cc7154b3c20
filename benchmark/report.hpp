#pragma once
// Everything one run reports: metrics, output checks, run validity and the
// machine/build identity, written as the result file, printed as a table,
// and summarized in the one-line JSON the benchmark contract reads.

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workload.hpp"

namespace swc::bench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string detail;  // how it was taken, e.g. "p95 of 288 samples, 14 beyond"
};

[[nodiscard]] Metric latency_metric(const std::string& name, const Quantile& q,
                                    const char* unit = "ms");

struct Check {
  std::string name;
  std::uint64_t failed = 0;  // frames (or counts) that failed this check
  std::string detail;
};

struct PhaseSummary {
  Phase phase = Phase::Light;
  std::uint64_t sent = 0, ok = 0, rejected = 0, failed = 0;
  Quantile p50, p95, p99, max;  // latency, ms
};

// One slice of the interleaved schedule; the end-to-end timings are medians
// over these. Latencies as in the end-to-end metrics, ms.
struct SliceSummary {
  double closed_fps = 0.0;
  double cpu_ms_per_frame = 0.0;
  double light_p50 = 0.0, heavy_p50 = 0.0;
};

struct RunResult {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;
  unsigned cores = 0;
  bool valid = true;
  std::string validity;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Check> checks;
  std::vector<PhaseSummary> phases;
  std::vector<SliceSummary> slices;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

// <out>/<workload>-seed<N>[-traced].json
void write_result(const std::string& path, const RunResult& result);
// Human-readable table, then the contract line last on stdout.
void print_result(const RunResult& result);

// Chrome trace-event JSON (opens in Perfetto): per-frame spans derived from
// the records (first kTraceFramesPerPhase frames of each measured phase)
// plus every span the tracer holds. All spans of one frame carry the same
// args.id, "<workload>/<stream>/<seq>".
inline constexpr std::size_t kTraceFramesPerPhase = 2000;
void write_trace(const std::string& path, const Workload& w,
                 const std::vector<FrameRecord>& records, const Tracer& tracer);

}  // namespace swc::bench
