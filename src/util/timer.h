// Monotonic stopwatch used by the benchmark harness, query stats, and the
// observability layer. Everything here reads steady_clock — never
// system_clock, whose NTP steps would corrupt measured durations
// (scripts/lint.sh bans system_clock::now() outside util/).
#ifndef PIS_UTIL_TIMER_H_
#define PIS_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace pis {

/// Monotonic stopwatch. Starts running on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double Millis() const { return Seconds() * 1e3; }

  /// Elapsed seconds, restarting the stopwatch at the same instant, so
  /// consecutive laps tile the elapsed time without gaps.
  double Lap() {
    const Clock::time_point now = Clock::now();
    const double seconds = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return seconds;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Nanoseconds on the monotonic clock. Only differences are meaningful —
/// the epoch is unspecified (boot time on Linux) and differs per host, so
/// a value must never cross a process boundary undiffed (trace spans ship
/// start offsets and durations, never raw timestamps).
inline uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace pis

#endif  // PIS_UTIL_TIMER_H_
