#include "runtime/frame_server.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

namespace swc::runtime {
namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - t0)
                                        .count());
}

void check_frame(const StreamContext& ctx, const image::ImageU8& frame) {
  const auto& spec = ctx.config().engine.spec;
  if (frame.width() != spec.image_width || frame.height() != spec.image_height) {
    throw std::invalid_argument("FrameServer: frame does not match stream " +
                                ctx.config().name + " geometry");
  }
}

}  // namespace

FrameServer::FrameServer(Options options)
    : pool_(std::move(options)), start_(std::chrono::steady_clock::now()) {}

FrameServer::~FrameServer() { pool_.shutdown(); }

std::uint32_t FrameServer::open_stream(StreamConfig config) {
  config.engine.validate();
  if (config.rate.has_value()) config.rate->validate();
  swc::MutexLock lock(streams_mutex_);
  std::uint32_t id;
  if (!free_ids_.empty()) {
    // Reuse the smallest retired id so the slot table stays dense.
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(streams_.size());
    streams_.emplace_back();
  }
  streams_[id] = Slot{std::make_shared<StreamContext>(id, std::move(config)),
                      pool_.make_strand()};
  return id;
}

bool FrameServer::close_stream(std::uint32_t stream_id) {
  swc::MutexLock lock(streams_mutex_);
  if (stream_id >= streams_.size() || streams_[stream_id].ctx == nullptr) return false;
  // Dropping the slot's references is the release: strand tokens still in
  // flight share ownership of the context and strand, and book their
  // telemetry on completion, so closing never races frame execution.
  streams_[stream_id] = Slot{};
  // Keep the free list sorted descending so pop_back() hands out the
  // smallest retired id first.
  const auto pos = std::lower_bound(free_ids_.begin(), free_ids_.end(), stream_id,
                                    std::greater<std::uint32_t>());
  free_ids_.insert(pos, stream_id);
  return true;
}

FrameServer::Slot FrameServer::find_stream(std::uint32_t id) const {
  swc::MutexLock lock(streams_mutex_);
  if (id >= streams_.size()) return Slot{};
  return streams_[id];
}

std::size_t FrameServer::active_streams() const {
  swc::MutexLock lock(streams_mutex_);
  return streams_.size() - free_ids_.size();
}

std::size_t FrameServer::stream_slots() const {
  swc::MutexLock lock(streams_mutex_);
  return streams_.size();
}

image::ImageU8 FrameServer::acquire_frame(std::uint32_t stream_id) {
  auto slot = find_stream(stream_id);
  if (slot.ctx == nullptr) {
    throw std::invalid_argument("FrameServer: unknown stream id " + std::to_string(stream_id));
  }
  const auto& spec = slot.ctx->config().engine.spec;
  auto buf = pool_.arena().acquire(spec.image_width * spec.image_height);
  return image::ImageU8(spec.image_width, spec.image_height, std::move(buf));
}

SubmitReceipt FrameServer::submit_frame(std::uint32_t stream_id, image::ImageU8 frame,
                                        SubmitPolicy policy, Callback on_done) {
  auto slot = find_stream(stream_id);
  if (slot.ctx == nullptr) {
    SubmitReceipt receipt;
    receipt.stream_id = stream_id;
    receipt.error = SubmitError::UnknownStream;
    return receipt;
  }
  auto& ctx = slot.ctx;
  check_frame(*ctx, frame);

  const auto submitted_at = std::chrono::steady_clock::now();
  const std::uint64_t seq = ctx->note_submitted();

  auto payload = std::make_shared<image::ImageU8>(std::move(frame));
  auto job = [this, ctx, payload, submitted_at, seq, on_done = std::move(on_done)] {
    // Strand-serialized: never two frames of one stream at once, so the
    // stream's reusable engine scratch is safe here.
    auto run = ctx->process(*payload, ctx->strand_scratch());
    const std::uint64_t latency = elapsed_ns(submitted_at);
    const std::size_t pixels = payload->size();
    pool_.arena().recycle(std::move(*payload).release());
    note_completed(*ctx, run.stats, pixels, latency);
    if (on_done) {
      FrameResult result;
      result.stream_id = ctx->id();
      result.frame_seq = seq;
      result.reconstructed = std::move(run.reconstructed);
      result.stats = std::move(run.stats);
      result.latency_ns = latency;
      on_done(std::move(result));
    }
  };

  SubmitReceipt receipt;
  receipt.stream_id = stream_id;
  receipt.frame_seq = seq;
  const SubmitOutcome outcome = pool_.submit_outcome(slot.strand, std::move(job), policy);
  if (outcome == SubmitOutcome::Accepted) return receipt;
  // A refused frame never runs: its payload goes back to the arena here, so
  // an acquired buffer is reused instead of being lost to the freelist.
  pool_.arena().recycle(std::move(*payload).release());
  ctx->note_submit_failed();
  receipt.error =
      outcome == SubmitOutcome::QueueFull ? SubmitError::QueueFull : SubmitError::ShuttingDown;
  return receipt;
}

FrameResult FrameServer::submit_striped(std::uint32_t stream_id, const image::ImageU8& frame,
                                        std::size_t max_stripes) {
  auto slot = find_stream(stream_id);
  if (slot.ctx == nullptr) {
    throw std::invalid_argument("FrameServer: unknown stream id " + std::to_string(stream_id));
  }
  auto& ctx = slot.ctx;
  check_frame(*ctx, frame);
  if (ctx->config().kind != EngineKind::Compressed) {
    throw std::invalid_argument("FrameServer: striped submission requires a compressed stream");
  }

  const auto submitted_at = std::chrono::steady_clock::now();
  const std::uint64_t seq = ctx->note_submitted();

  auto run = run_compressed_striped(ctx->config().engine, frame, max_stripes, &pool_);
  const std::uint64_t latency = elapsed_ns(submitted_at);
  note_completed(*ctx, run.stats, frame.size(), latency);

  FrameResult result;
  result.stream_id = ctx->id();
  result.frame_seq = seq;
  if (ctx->config().keep_output) result.reconstructed = std::move(run.reconstructed);
  result.stats = std::move(run.stats);
  result.latency_ns = latency;
  return result;
}

void FrameServer::note_completed(StreamContext& ctx, const core::RunStats& stats,
                                 std::size_t pixels, std::uint64_t latency_ns) {
  ctx.note_completed(stats, pixels, latency_ns);
  swc::MutexLock lock(totals_mutex_);
  totals_.merge(stats.metrics);
}

void FrameServer::wait_idle() { pool_.wait_idle(); }

RuntimeStatsSnapshot FrameServer::stats() const {
  const ShardStatsSnapshot pool = pool_.stats();
  RuntimeStatsSnapshot snap;
  snap.workers = pool.workers;
  snap.queue_capacity = pool.queue_capacity;
  snap.queue_depth = pool.queue_depth;
  snap.queue_high_water = pool.queue_high_water;
  snap.worker_utilization = pool.worker_utilization;
  snap.shards = {pool};
  snap.wall_seconds = static_cast<double>(elapsed_ns(start_)) / 1e9;
  {
    swc::MutexLock lock(streams_mutex_);
    snap.streams.reserve(streams_.size());
    for (const auto& slot : streams_) {
      if (slot.ctx != nullptr) snap.streams.push_back(slot.ctx->snapshot());
    }
  }
  for (const auto& s : snap.streams) {
    snap.frames_submitted += s.frames_submitted;
    snap.frames_completed += s.frames_completed;
    snap.frames_rejected += s.frames_rejected;
  }
  {
    swc::MutexLock lock(totals_mutex_);
    snap.metrics = totals_;
  }
  // Fold the dispatch layer's own counters in so runtime.* metrics travel
  // with every snapshot (and through benchx's snapshot emitter).
  const auto& rids = RuntimeMetricIds::get();
  snap.metrics.add(rids.parks, pool.parks);
  snap.metrics.note_max(rids.queue_depth, pool.queue_depth);
  snap.metrics.add(rids.arena_allocs, pool.arena.allocs);
  snap.metrics.add(rids.arena_reuses, pool.arena.reuses);
  snap.metrics.add(rids.arena_recycled, pool.arena.recycled);
  snap.metrics.add(rids.arena_dropped, pool.arena.dropped);
  snap.metrics.note_max(rids.arena_retained, pool.arena.retained_bytes);
  return snap;
}

}  // namespace swc::runtime
