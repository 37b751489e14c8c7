// Simulated time. The whole continuum simulation runs on a single logical
// clock with nanosecond resolution; wall-clock never leaks into results, so
// every experiment is bit-reproducible given a seed.
#pragma once

#include <cstdint>
#include <string>

namespace myrtus::sim {

/// Nanosecond-resolution simulated time point / duration.
struct SimTime {
  std::int64_t ns = 0;

  static constexpr SimTime Zero() { return {0}; }
  static constexpr SimTime Nanos(std::int64_t v) { return {v}; }
  static constexpr SimTime Micros(std::int64_t v) { return {v * 1'000}; }
  static constexpr SimTime Millis(std::int64_t v) { return {v * 1'000'000}; }
  static constexpr SimTime Seconds(std::int64_t v) { return {v * 1'000'000'000}; }
  /// From fractional seconds (rounded to nearest nanosecond).
  static SimTime FromSeconds(double s);

  [[nodiscard]] double ToSecondsF() const { return static_cast<double>(ns) * 1e-9; }
  [[nodiscard]] double ToMillisF() const { return static_cast<double>(ns) * 1e-6; }

  /// "12.345ms"-style rendering for traces.
  [[nodiscard]] std::string ToString() const;

  friend constexpr SimTime operator+(SimTime a, SimTime b) { return {a.ns + b.ns}; }
  friend constexpr SimTime operator-(SimTime a, SimTime b) { return {a.ns - b.ns}; }
  constexpr SimTime& operator+=(SimTime o) { ns += o.ns; return *this; }
  constexpr SimTime& operator-=(SimTime o) { ns -= o.ns; return *this; }
  friend constexpr SimTime operator*(SimTime a, std::int64_t k) { return {a.ns * k}; }
  friend constexpr auto operator<=>(SimTime a, SimTime b) = default;
};

}  // namespace myrtus::sim
