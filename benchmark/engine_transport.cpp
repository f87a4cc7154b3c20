// Engine path: frames go straight into runtime::FrameServer::submit_frame.
// Completions arrive on worker threads and are queued; the generator picks
// them up when it polls and does everything else (hashing outputs
// included), so the workers only compress.

#include <algorithm>
#include <atomic>

#include "core/sync.hpp"
#include "runtime/frame_server.hpp"
#include "workload.hpp"

namespace swc::bench {
namespace {

class EngineTransport final : public Transport {
 public:
  EngineTransport(const Workload& w, std::vector<StreamInputs>& inputs,
                  std::vector<FrameRecord>& records, Tracer& tracer, DoneFn done)
      : inputs_(inputs),
        records_(records),
        tracer_(tracer),
        done_(std::move(done)),
        server_([] {
          runtime::FrameServerOptions options;
          options.workers = kWorkers;
          return options;
        }()) {
    for (std::size_t s = 0; s < w.streams.size(); ++s) {
      runtime::StreamConfig config;
      config.name = w.name + "-" + std::to_string(s);
      config.engine = w.engine_config(s);
      config.keep_output = true;
      config.rate = w.streams[s].rate;
      ids_.push_back(server_.open_stream(std::move(config)));
    }
  }

  void issue(std::size_t record) override {
    FrameRecord& r = records_[record];
    const std::uint32_t id = ids_[r.stream];
    image::ImageU8 frame = server_.acquire_frame(id);
    const auto src = inputs_[r.stream].frames[r.frame].pixels();
    std::copy(src.begin(), src.end(), frame.pixels().begin());
    r.start_ns = now_ns();
    // Open-loop cameras never wait: a full queue is a refusal, as on the
    // realtime tier. The closed loop blocks, as a batch producer would.
    const auto policy = r.phase == Phase::Closed || r.phase == Phase::ClosedTraced
                            ? runtime::SubmitPolicy::Block
                            : runtime::SubmitPolicy::Reject;
    runtime::SubmitReceipt receipt;
    {
      ScopedSpan span(tracer_, "runtime.submit_frame", r.stream, record_seq(record));
      receipt = server_.submit_frame(
          id, std::move(frame), policy,
          [this, record](runtime::FrameResult result) { on_result(record, std::move(result)); });
    }
    r.handoff_ns = now_ns();
    if (!receipt.accepted()) {
      r.status = Status::Rejected;
      r.done_ns = r.handoff_ns;
      refused_.push_back(record);
    }
  }

  void poll() override {
    std::vector<std::size_t> refused;
    refused.swap(refused_);
    for (const std::size_t record : refused) done_(record);

    if (!pending_.load(std::memory_order_acquire)) return;
    std::vector<Completion> batch;
    {
      swc::MutexLock lock(mutex_);
      batch.swap(completed_);
      pending_.store(false, std::memory_order_relaxed);
    }
    for (auto& c : batch) {
      FrameRecord& r = records_[c.record];
      r.done_ns = c.done_ns;
      r.server_ns = c.latency_ns;
      r.payload_bits = c.payload_bits;
      r.output_hash = hash_pixels(c.output);
      r.status = Status::Ok;
      done_(c.record);
    }
  }

  ServerCounters counters() override {
    ServerCounters c;
    c.runtime = server_.stats();
    c.completed = c.runtime.frames_completed;
    return c;
  }

 private:
  struct Completion {
    std::size_t record = 0;
    std::int64_t done_ns = 0;
    std::uint64_t latency_ns = 0;
    std::uint64_t payload_bits = 0;
    image::ImageU8 output;
  };

  // Worker thread.
  void on_result(std::size_t record, runtime::FrameResult result) {
    Completion c{record, now_ns(), result.latency_ns, result.stats.total_payload_bits(),
                 std::move(result.reconstructed)};
    swc::MutexLock lock(mutex_);
    completed_.push_back(std::move(c));
    pending_.store(true, std::memory_order_release);
  }

  std::vector<StreamInputs>& inputs_;
  std::vector<FrameRecord>& records_;
  Tracer& tracer_;
  DoneFn done_;
  swc::Mutex mutex_;
  std::vector<Completion> completed_ SWC_GUARDED_BY(mutex_);
  // Lets the polling generator skip the lock while nothing has completed.
  std::atomic<bool> pending_{false};
  std::vector<std::size_t> refused_;  // generator thread only
  std::vector<std::uint32_t> ids_;
  // Last member: its destructor runs every accepted frame's callback, which
  // needs the completion queue above.
  runtime::FrameServer server_;
};

}  // namespace

std::unique_ptr<Transport> make_engine_transport(const Workload& w,
                                                 std::vector<StreamInputs>& inputs,
                                                 std::vector<FrameRecord>& records,
                                                 Tracer& tracer, Transport::DoneFn done) {
  return std::make_unique<EngineTransport>(w, inputs, records, tracer, std::move(done));
}

}  // namespace swc::bench
