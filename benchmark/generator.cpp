#include "generator.hpp"

#include <algorithm>
#include <cmath>

namespace swc::bench {
namespace {

std::int64_t seconds_ns(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * 1e9));
}

}  // namespace

void Generator::issue(std::size_t stream, std::int64_t due_ns) {
  FrameRecord record;
  record.instance = instance_;
  record.stream = static_cast<std::uint32_t>(stream);
  record.frame = next_frame_[stream]++ % static_cast<std::uint32_t>(kFramesPerStream);
  record.phase = phase_;
  record.due_ns = due_ns;
  records_.push_back(record);
  ++outstanding_;
  transport_->issue(records_.size() - 1);
}

void Generator::on_done(std::size_t record) {
  --outstanding_;
  const FrameRecord& done = records_[record];
  if (done.phase != phase_ || done.instance != instance_) return;
  last_done_ns_ = done.done_ns;
  if (quota_[done.stream] > 0) {
    --quota_[done.stream];
    issue(done.stream, now_ns());
  }
}

bool Generator::first_frames(double timeout_s) {
  phase_ = Phase::Setup;
  for (std::size_t s = 0; s < next_frame_.size(); ++s) issue(s, now_ns());
  return drain(timeout_s);
}

void Generator::open_loop(Phase phase, double fps_per_stream, double seconds) {
  phase_ = phase;
  const std::size_t streams = next_frame_.size();
  const std::int64_t start = now_ns();
  const std::int64_t end = start + seconds_ns(seconds);
  const double period = 1e9 / fps_per_stream;
  // Stream s is due at start + (k + s / streams) * period for k = 0, 1, ...
  std::vector<std::uint64_t> sent(streams, 0);
  const auto due = [&](std::size_t s) {
    return start + static_cast<std::int64_t>(std::llround(
                       (static_cast<double>(sent[s]) +
                        static_cast<double>(s) / static_cast<double>(streams)) *
                       period));
  };
  for (std::int64_t now = start; now < end; now = now_ns()) {
    for (std::size_t s = 0; s < streams; ++s) {
      for (std::int64_t d = due(s); d <= now && d < end; d = due(s)) {
        issue(s, d);
        ++sent[s];
      }
    }
    transport_->poll();
  }
}

double Generator::closed_loop(Phase phase, std::size_t frames_per_stream, double timeout_s) {
  phase_ = phase;
  const std::size_t first = std::min(frames_per_stream, kClosedInflight);
  quota_.assign(next_frame_.size(), frames_per_stream - first);
  const std::int64_t start = now_ns();
  last_done_ns_ = start;
  for (std::size_t s = 0; s < next_frame_.size(); ++s) {
    for (std::size_t k = 0; k < first; ++k) issue(s, start);
  }
  const bool drained = drain(timeout_s);  // completions refill until the quota is spent
  quota_.assign(next_frame_.size(), 0);
  return drained ? static_cast<double>(last_done_ns_ - start) / 1e9 : 0.0;
}

bool Generator::drain(double timeout_s) {
  const std::int64_t deadline = now_ns() + seconds_ns(timeout_s);
  while (outstanding_ > 0 && now_ns() < deadline) transport_->poll();
  return outstanding_ == 0;
}

}  // namespace swc::bench
