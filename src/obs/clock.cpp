#include "obs/clock.h"

#include <chrono>

namespace disco {
namespace obs {

namespace {
ClockFn g_clock = nullptr;
}  // namespace

std::uint64_t NowNs() {
  if (g_clock != nullptr) return g_clock();
  // steady_clock is CLOCK_MONOTONIC on Linux: the epoch is shared across
  // processes on one machine, which is what makes merging worker traces
  // into the driver's timeline by timestamp meaningful (a remote host's
  // workers keep their own epoch).
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

void SetClockForTest(ClockFn fn) { g_clock = fn; }

}  // namespace obs
}  // namespace disco
