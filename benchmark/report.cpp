#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/bench_common.hpp"

namespace swc::bench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Every digit, so no two runs read alike by rounding; non-finite values
// would make the file invalid JSON, so they surface as null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quantile_json(const Quantile& q) {
  return "{\"value\": " + json_number(q.value) + ", \"samples\": " + std::to_string(q.samples) +
         ", \"beyond\": " + std::to_string(q.beyond) + "}";
}

std::string metrics_json(const std::vector<Metric>& metrics, bool with_detail) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "" : ", ") + json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit);
    if (with_detail) out += ", \"detail\": " + json_string(m.detail);
    out += "}";
  }
  return out + "}";
}

bool correct(const RunResult& r) { return r.failed == 0; }

std::string contract_line(const RunResult& r) {
  return "{\"correct\": " + std::string(correct(r) ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) + ", \"failed\": " +
         std::to_string(r.failed) + ", \"metrics\": " +
         metrics_json(r.traced ? r.per_layer : r.end_to_end, /*with_detail=*/false) + "}";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-44s %14.6g %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.detail.c_str());
  }
}

}  // namespace

Metric latency_metric(const std::string& name, const Quantile& q, const char* unit) {
  return {name, q.value, unit,
          "of " + std::to_string(q.samples) + " samples, " + std::to_string(q.beyond) +
              " beyond"};
}

void write_result(const std::string& path, const RunResult& r) {
  const auto& meta = benchx::bench_meta();
  std::ofstream out(path);
  out << "{\n  \"workload\": " << json_string(r.workload) << ",\n  \"seed\": " << r.seed
      << ",\n  \"seconds\": " << json_number(r.seconds)
      << ",\n  \"traced\": " << (r.traced ? "true" : "false") << ",\n  \"meta\": {\"cores\": "
      << r.cores << ", \"cpu_model\": " << json_string(meta.cpu_model)
      << ", \"simd\": " << json_string(meta.simd) << ", \"compiler\": "
      << json_string(meta.compiler) << ", \"build_type\": " << json_string(SWC_BENCHMARK_BUILD_TYPE)
      << ", \"telemetry\": " << (meta.telemetry ? "true" : "false") << ", \"seed\": " << r.seed
      << ", \"git_rev\": " << json_string(benchx::git_rev()) << "},\n  \"valid\": "
      << (r.valid ? "true" : "false") << ",\n  \"validity\": " << json_string(r.validity)
      << ",\n  \"correct\": " << (correct(r) ? "true" : "false")
      << ",\n  \"attempted\": " << r.attempted << ",\n  \"failed\": " << r.failed
      << ",\n  \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    out << (i == 0 ? "\n    " : ",\n    ") << "{\"name\": " << json_string(c.name)
        << ", \"failed\": " << c.failed << ", \"detail\": " << json_string(c.detail) << "}";
  }
  out << "\n  ],\n  \"phases\": {";
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    const PhaseSummary& p = r.phases[i];
    out << (i == 0 ? "\n    " : ",\n    ") << json_string(to_string(p.phase))
        << ": {\"sent\": " << p.sent << ", \"ok\": " << p.ok << ", \"rejected\": " << p.rejected
        << ", \"failed\": " << p.failed << ", \"latency_ms\": {\"p50\": " << quantile_json(p.p50)
        << ", \"p95\": " << quantile_json(p.p95) << ", \"p99\": " << quantile_json(p.p99)
        << ", \"max\": " << quantile_json(p.max) << "}}";
  }
  out << "\n  },\n  \"slices\": [";
  for (std::size_t i = 0; i < r.slices.size(); ++i) {
    const SliceSummary& s = r.slices[i];
    out << (i == 0 ? "\n    " : ",\n    ") << "{\"closed_fps\": " << json_number(s.closed_fps)
        << ", \"cpu_ms_per_frame\": " << json_number(s.cpu_ms_per_frame)
        << ", \"light_p50_ms\": " << json_number(s.light_p50)
        << ", \"heavy_p50_ms\": " << json_number(s.heavy_p50) << "}";
  }
  out << "\n  ],\n  \"end_to_end\": " << metrics_json(r.end_to_end, true)
      << ",\n  \"per_layer\": " << metrics_json(r.per_layer, true) << "\n}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

void print_result(const RunResult& r) {
  const auto& meta = benchx::bench_meta();
  std::printf("== %s  seed %llu  %.0f s  %s  (%u cores, %s, %s, %s, %s, git %s)\n",
              r.workload.c_str(), static_cast<unsigned long long>(r.seed), r.seconds,
              r.traced ? "traced" : "untraced", r.cores, meta.cpu_model.c_str(),
              meta.simd.c_str(), meta.compiler.c_str(), SWC_BENCHMARK_BUILD_TYPE,
              benchx::git_rev().c_str());
  std::printf("%-14s %8s %8s %8s %7s %10s %10s %10s %10s\n", "phase", "sent", "ok", "refused",
              "failed", "p50 ms", "p95 ms", "p99 ms", "max ms");
  for (const auto& p : r.phases) {
    std::printf("%-14s %8llu %8llu %8llu %7llu %10.3f %10.3f %10.3f %10.3f\n", to_string(p.phase),
                static_cast<unsigned long long>(p.sent), static_cast<unsigned long long>(p.ok),
                static_cast<unsigned long long>(p.rejected),
                static_cast<unsigned long long>(p.failed), p.p50.value, p.p95.value, p.p99.value,
                p.max.value);
  }
  print_metrics("end-to-end metrics:", r.end_to_end);
  if (r.traced) print_metrics("per-layer metrics:", r.per_layer);
  std::printf("checks (%llu frames attempted):\n", static_cast<unsigned long long>(r.attempted));
  for (const auto& c : r.checks) {
    std::printf("  %-28s %s  %s\n", c.name.c_str(), c.failed == 0 ? "ok    " : "FAILED",
                c.detail.c_str());
  }
  std::printf("validity: %s (%s)\n", r.valid ? "ok" : "INVALID", r.validity.c_str());
  std::printf("%s\n", contract_line(r).c_str());
  std::fflush(stdout);
}

void write_trace(const std::string& path, const Workload& w,
                 const std::vector<FrameRecord>& records, const Tracer& tracer) {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto& r : records) {
    if (r.phase != Phase::Setup && r.phase != Phase::Warmup) origin = std::min(origin, r.due_ns);
  }
  for (const auto& s : tracer.spans()) origin = std::min(origin, s.begin_ns);

  std::ostringstream out;
  bool first = true;
  const auto us = [](std::int64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
    return std::string(buf);
  };
  const auto frame_id = [&w, &records](std::uint64_t seq) {
    return json_string(w.name + "/" + std::to_string(records[seq - 1].stream) + "/" +
                       std::to_string(seq));
  };
  const auto event = [&](const std::string& name, const char* cat, std::uint32_t tid,
                         std::int64_t begin, std::int64_t end, const std::string& args) {
    out << (first ? "\n" : ",\n") << "{\"name\": " << json_string(name) << ", \"cat\": \"" << cat
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid << ", \"ts\": " << us(begin - origin)
        << ", \"dur\": " << us(end - begin) << ", \"args\": {" << args << "}}";
    first = false;
  };

  for (std::uint32_t s = 0; s < w.streams.size(); ++s) {
    out << (first ? "\n" : ",\n") << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
        << "\"tid\": " << s << ", \"args\": {\"name\": \"stream " << s << " ("
        << w.streams[s].backend << ")\"}}";
    first = false;
  }
  out << ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " << kReplayTid
      << ", \"args\": {\"name\": \"layer replays\"}}";

  std::size_t per_phase[8] = {};
  for (std::size_t i = 0; i < records.size(); ++i) {
    const FrameRecord& r = records[i];
    if (r.phase == Phase::Setup || r.phase == Phase::Warmup || r.done_ns == 0) continue;
    if (per_phase[static_cast<std::size_t>(r.phase)]++ >= kTraceFramesPerPhase) continue;
    const std::uint64_t seq = record_seq(i);
    const std::string id = "\"id\": " + frame_id(seq);
    event("frame", "client", r.stream, r.due_ns, r.done_ns,
          id + ", \"phase\": \"" + to_string(r.phase) + "\", \"status\": " +
              std::to_string(static_cast<int>(r.status)));
    event("client.queue", "client", r.stream, r.due_ns, r.start_ns, id);
    event("client.handoff", "client", r.stream, r.start_ns, r.handoff_ns, id);
    if (r.status == Status::Ok) {
      // Derived, not observed: the server's own latency placed at the
      // earliest instant it can have started (the end of the handoff).
      event("server", "serve", r.stream, r.handoff_ns,
            r.handoff_ns + static_cast<std::int64_t>(r.server_ns), id + ", \"derived\": true");
    }
  }
  for (const auto& s : tracer.spans()) {
    event(s.name, s.tid == kReplayTid ? "replay" : "call", s.tid, s.begin_ns, s.end_ns,
          s.id == 0 ? std::string() : "\"id\": " + frame_id(s.id));
  }

  std::ofstream file(path);
  file << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [" << out.str() << "\n]}\n";
  if (!file) throw std::runtime_error("cannot write " + path);
}

}  // namespace swc::bench
