#pragma once
// Closed-loop rate control: steer the codec threshold T so each processed
// unit (frame or stripe) lands on a target bits-per-pixel or MSE budget.
//
// A setpoint tracker, not a buffer guard: AdaptiveThresholdController keeps
// a frame under a hard buffer ceiling and relaxes to T = 0 whenever it can,
// while this controller holds a target (DESIGN.md "Closed-loop rate
// control" compares the two on one sequence). The plant is the engine's
// threshold -> rate curve, which is monotonic (raising T never produces more
// bits, never less error), so a signed step search with escalation in a
// constant direction and halving on reversal converges to the quantization
// floor of the curve without oscillating.
//
//   achieved too high vs target  ->  move T one step toward "coarser"
//   achieved too low  vs target  ->  move T one step toward "finer"
//   inside the dead band         ->  hold (converged)
//
// "Coarser" means +T for BitsPerPixel mode (more thresholding, fewer bits)
// and -T for Mse mode (less thresholding, less error) — the controller only
// encodes the sign of the plant's slope, not its magnitude. Step-response
// behavior (convergence within K observations, no post-settle oscillation)
// is pinned by tests/core/rate_control_test.cpp.

#include <cstddef>
#include <cstdint>

namespace swc::core {

enum class RateControlMode : std::uint8_t {
  BitsPerPixel,  // achieved = compressed bits / pixels (lower T => more bits)
  Mse,           // achieved = reconstruction MSE (lower T => less error)
};

struct RateControlConfig {
  RateControlMode mode = RateControlMode::BitsPerPixel;
  double target = 2.0;       // bpp or MSE, per mode
  double tolerance = 0.05;   // relative dead band: |achieved/target - 1| <= tol
  int min_threshold = 0;     // lossless floor
  int max_threshold = 64;    // compression ceiling
  int initial_threshold = 0;

  void validate() const;
};

class RateController {
 public:
  explicit RateController(RateControlConfig config);

  [[nodiscard]] int threshold() const noexcept { return threshold_; }

  // Report the achieved rate/error of the unit just processed at the current
  // threshold; returns the threshold to use for the next one.
  int observe(double achieved);

  // True when the most recent observation fell inside the dead band.
  [[nodiscard]] bool converged() const noexcept { return converged_; }
  [[nodiscard]] std::size_t observations() const noexcept { return observations_; }
  [[nodiscard]] const RateControlConfig& config() const noexcept { return config_; }

 private:
  RateControlConfig config_;
  int threshold_;
  int step_ = 1;           // escalates while pushing one direction, halves after reversal
  int direction_ = 0;      // sign of the last move (+1 coarser, -1 finer, 0 none)
  bool reversed_ = false;  // a reversal switches escalation off -> bisection
  bool converged_ = false;
  std::size_t observations_ = 0;
};

}  // namespace swc::core
