#pragma once
// One thread driving every stream of a workload. Open-loop phases send each
// stream's frames on a fixed schedule (streams staggered by 1/S of a period)
// whatever the server does, so a stall shows up as latency of the frames
// that were due during it. The closed-loop phase keeps kClosedInflight
// frames in flight per stream and sends the next one as each completes,
// until each stream has sent its quota.

#include <cstdint>
#include <vector>

#include "workload.hpp"

namespace swc::bench {

class Generator {
 public:
  Generator(std::vector<FrameRecord>& records, std::size_t streams)
      : records_(records), next_frame_(streams, 0), quota_(streams, 0) {}

  // Subsequent frames go to `transport`, tagged with `instance`.
  void bind(Transport& transport, std::uint32_t instance) {
    transport_ = &transport;
    instance_ = instance;
  }

  // Transport::DoneFn target.
  void on_done(std::size_t record);

  // One frame per stream, then wait for all of them; false on timeout.
  bool first_frames(double timeout_s);
  void open_loop(Phase phase, double fps_per_stream, double seconds);
  // Sends `frames_per_stream` frames per stream and waits for all of them.
  // Returns the seconds from the first send to the last completion, or 0 on
  // timeout.
  double closed_loop(Phase phase, std::size_t frames_per_stream, double timeout_s);
  // Waits until every frame sent has completed; false on timeout.
  bool drain(double timeout_s);

 private:
  void issue(std::size_t stream, std::int64_t due_ns);

  std::vector<FrameRecord>& records_;
  std::vector<std::uint32_t> next_frame_;  // per stream, cycles through the inputs
  std::vector<std::size_t> quota_;         // closed loop: frames each stream has yet to send
  Transport* transport_ = nullptr;
  std::uint32_t instance_ = 0;
  std::size_t outstanding_ = 0;
  Phase phase_ = Phase::Setup;
  std::int64_t last_done_ns_ = 0;
};

}  // namespace swc::bench
