#pragma once
// FrameServer: the multi-stream serving front end of the runtime layer.
//
// Callers open independent streams (each with its own engine kind, geometry,
// codec threshold, and accumulated stats) and submit frames. Frames are
// dispatched to a ShardPool with one frame budget: SubmitPolicy::Block
// applies backpressure to the producer, SubmitPolicy::Reject fails fast and
// counts the drop per stream. Completed frames optionally invoke a caller
// callback (from the worker thread) with the reconstructed image, codec run
// stats, and measured latency.
//
// Every stream gets a strand at open_stream (see runtime/shard_pool.hpp)
// that serializes its frames, so a stream's completions happen in
// submission order while different streams run fully parallel, and the
// pool's arena recycles frame payloads.
//
// Two parallelism axes compose:
//  * stream-parallel — independent streams' frames run concurrently across
//    the workers (the engines are const/reentrant);
//  * stripe-parallel — submit_striped() splits one large frame into
//    horizontal halo-overlapped stripes (see runtime/stripe.hpp) so a single
//    frame can occupy every worker; exact at threshold 0.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/streaming_engine.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "image/image.hpp"
#include "runtime/shard_pool.hpp"
#include "runtime/stats.hpp"
#include "runtime/stream_context.hpp"
#include "runtime/stripe.hpp"

namespace swc::runtime {

struct FrameResult {
  std::uint32_t stream_id = 0;
  std::uint64_t frame_seq = 0;  // per-stream submission sequence number
  image::ImageU8 reconstructed;  // empty for Traditional / keep_output=false
  core::RunStats stats;
  std::uint64_t latency_ns = 0;  // submit-to-completion, includes queueing
};

// A FrameServer has no settings of its own beyond its pool's.
using FrameServerOptions = ShardPoolOptions;

// Why a frame was not accepted. Distinguishing transient overload from
// terminal shutdown lets a caller (the serve layer's session manager) map a
// rejection onto the right wire-level response instead of a silent drop.
enum class SubmitError : std::uint8_t {
  None,           // accepted
  QueueFull,      // Reject policy and the worker queue was at capacity
  ShuttingDown,   // server is tearing down; no frame will be accepted again
  UnknownStream,  // stream id was never opened, or was closed
};

// Identity + outcome of one submission attempt. On acceptance, frame_seq is
// the per-stream sequence number the eventual FrameResult will carry, so
// completions can be matched back to submissions without extra bookkeeping.
struct SubmitReceipt {
  std::uint32_t stream_id = 0;
  std::uint64_t frame_seq = 0;  // valid only when accepted()
  SubmitError error = SubmitError::None;

  [[nodiscard]] bool accepted() const noexcept { return error == SubmitError::None; }
};

class FrameServer {
 public:
  using Options = FrameServerOptions;

  using Callback = std::function<void(FrameResult)>;

  explicit FrameServer(Options options = Options());
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  // Registers a stream and returns its id. Closed ids are recycled
  // (smallest retired id first), so long-running servers with stream churn
  // keep a bounded slot table instead of growing one entry per stream ever
  // opened. Thread-safe.
  std::uint32_t open_stream(StreamConfig config);

  // Retires a stream: its slot is freed for reuse and subsequent submissions
  // to the id fail with SubmitError::UnknownStream. Frames already in flight
  // finish normally (workers hold their own reference to the context) and
  // fold into stats().metrics as usual, but the per-stream snapshot leaves
  // stats().streams at once. Returns false when the id is unknown or
  // already closed. Thread-safe.
  bool close_stream(std::uint32_t stream_id);

  // Enqueue one frame. Returns false when rejected (Reject policy with a
  // full queue, server shutting down, or unknown/closed stream); the
  // rejection is counted against the stream when one exists. Throws
  // std::invalid_argument only for frames that do not match an open
  // stream's configured geometry (a caller bug, not a race-able condition).
  bool submit(std::uint32_t stream_id, image::ImageU8 frame,
              SubmitPolicy policy = SubmitPolicy::Block, Callback on_done = {}) {
    return submit_frame(stream_id, std::move(frame), policy, std::move(on_done)).accepted();
  }

  // As submit(), but returns the submission's identity and, on rejection,
  // its cause (UnknownStream for closed/never-opened ids — never a throw,
  // because with concurrent close_stream() an unknown id is a normal race,
  // not a caller bug). Still throws on geometry mismatch.
  SubmitReceipt submit_frame(std::uint32_t stream_id, image::ImageU8 frame,
                             SubmitPolicy policy = SubmitPolicy::Block, Callback on_done = {});

  // Process one frame stripe-parallel across up to `max_stripes` stripes on
  // the server's pool, blocking the caller until the frame completes.
  // Compressed streams only. Counts as one frame in the stream's stats.
  // Throws std::invalid_argument for unknown/closed streams (the blocking
  // call has no receipt to carry the error).
  FrameResult submit_striped(std::uint32_t stream_id, const image::ImageU8& frame,
                             std::size_t max_stripes);

  // Barrier: returns once every accepted frame has completed.
  void wait_idle();

  [[nodiscard]] RuntimeStatsSnapshot stats() const;

  [[nodiscard]] std::size_t worker_count() const noexcept { return pool_.worker_count(); }
  // Lightweight queue pressure probes (stats() builds a full snapshot and
  // is too heavy to poll per frame): pending frames against the pool's one
  // budget, which gates every submit.
  [[nodiscard]] std::size_t queue_depth() const { return pool_.queue_depth(); }
  [[nodiscard]] std::size_t queue_capacity() const noexcept { return pool_.queue_capacity(); }

  // A frame-sized buffer recycled from the pool's arena (falls back to a
  // fresh allocation when the freelist is dry). Producers that source their
  // frames here close the recycle loop: payload buffers return to the arena
  // after processing, or at once when the submit is refused. Throws for
  // unknown streams.
  [[nodiscard]] image::ImageU8 acquire_frame(std::uint32_t stream_id);

  // Streams currently open (slots minus the free list).
  [[nodiscard]] std::size_t active_streams() const;
  // Size of the slot table — bounded by the peak number of *simultaneously*
  // open streams, not by the total ever opened (asserted by the lifecycle
  // stress test).
  [[nodiscard]] std::size_t stream_slots() const;

 private:
  struct Slot {
    std::shared_ptr<StreamContext> ctx;
    std::shared_ptr<ShardPool::Strand> strand;
  };

  // Empty slot when the id is out of range or has been closed.
  [[nodiscard]] Slot find_stream(std::uint32_t id) const SWC_EXCLUDES(streams_mutex_);
  // Books a completed frame on its stream and in the server-wide totals.
  void note_completed(StreamContext& ctx, const core::RunStats& stats, std::size_t pixels,
                      std::uint64_t latency_ns) SWC_EXCLUDES(totals_mutex_);

  ShardPool pool_;
  std::chrono::steady_clock::time_point start_;

  mutable swc::Mutex totals_mutex_;
  // engine.* metrics of every completed frame since start, so stats().metrics
  // never goes backwards when a stream closes.
  telemetry::Snapshot totals_ SWC_GUARDED_BY(totals_mutex_);

  mutable swc::Mutex streams_mutex_;
  // index == id; a closed stream leaves a null slot until open_stream()
  // recycles the id from free_ids_.
  std::vector<Slot> streams_ SWC_GUARDED_BY(streams_mutex_);
  std::vector<std::uint32_t> free_ids_ SWC_GUARDED_BY(streams_mutex_);
};

}  // namespace swc::runtime
