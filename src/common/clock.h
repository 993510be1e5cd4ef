#ifndef DOTPROV_COMMON_CLOCK_H_
#define DOTPROV_COMMON_CLOCK_H_

#include <chrono>

namespace dot {

/// Monotonic wall-clock in milliseconds; only differences are meaningful
/// (the engines report their run times as NowMs() - start).
inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace dot

#endif  // DOTPROV_COMMON_CLOCK_H_
