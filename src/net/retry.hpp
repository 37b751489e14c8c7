// Retry/backoff and circuit-breaking for the RPC fabric — the robustness
// layer the self-adaptive orchestration loop needs while edge nodes flap and
// links drop (paper §III Monitoring/Planning). A RetryPolicy bounds how hard
// a caller pushes (attempts, exponential backoff with deterministic seeded
// jitter, per-attempt and overall deadlines); a per-destination
// CircuitBreaker sheds load from endpoints whose recent failure rate says
// they are down, so a flapping peer degrades into fast local failures
// instead of a pile-up of in-flight timeouts. Both are pure state machines
// over sim::SimTime: no wall clock, fully reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "sim/time.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace myrtus::net {

/// How Network::CallWithRetry re-drives a failed RPC. The defaults suit
/// control-plane calls (pubsub, negotiation); latency-critical protocols
/// (Raft) override the timing fields to track their own timers.
struct RetryPolicy {
  /// Total tries including the first. 1 = plain Call semantics.
  int max_attempts = 4;
  /// Backoff before the 2nd attempt; doubles (see multiplier) afterwards.
  sim::SimTime initial_backoff = sim::SimTime::Millis(50);
  double backoff_multiplier = 2.0;
  sim::SimTime max_backoff = sim::SimTime::Seconds(2);
  /// Uniform jitter as a fraction of the backoff: the wait is scaled by a
  /// factor drawn from [1-jitter, 1+jitter] on the caller's seeded stream,
  /// de-synchronizing retry storms without breaking reproducibility.
  double jitter = 0.2;
  /// Deadline of each individual attempt (the Call timeout).
  sim::SimTime attempt_timeout = sim::SimTime::Seconds(1);
  /// Budget across all attempts and backoffs; once it cannot fit another
  /// backoff + attempt, the last error is surfaced.
  sim::SimTime overall_deadline = sim::SimTime::Seconds(10);
  /// Route attempts through the per-destination breaker (below).
  bool use_circuit_breaker = true;

  /// Single attempt, legacy 5 s timeout — behaves exactly like Call().
  static RetryPolicy None();

  /// Backoff to wait before `attempt` (2-based: the wait preceding the
  /// second attempt is BackoffBefore(2, ...)). Deterministic given the rng
  /// state; clamped to max_backoff before jitter is applied.
  [[nodiscard]] sim::SimTime BackoffBefore(int attempt, util::Rng& rng) const;
};

/// True for failures that signal "the destination may answer if asked again"
/// (UNAVAILABLE, DEADLINE_EXCEEDED). Application-level errors (NOT_FOUND,
/// RESOURCE_EXHAUSTED, ...) prove the destination is alive and are returned
/// to the caller immediately.
[[nodiscard]] bool IsRetryableRpcStatus(const util::Status& status);

struct CircuitBreakerConfig {
  /// Sliding window of most-recent call outcomes the failure rate is
  /// computed over.
  std::size_t window = 16;
  /// No tripping before this many outcomes are in the window (a single
  /// failure on a cold breaker must not open it).
  std::size_t min_samples = 8;
  /// Open when failures/window >= threshold.
  double failure_threshold = 0.6;
  /// How long an open breaker rejects before letting one probe through.
  sim::SimTime open_timeout = sim::SimTime::Millis(500);
};

/// Per-destination closed → open → half-open breaker. Time is always passed
/// in (simulated now) so the state machine is deterministic and testable.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(CircuitBreakerConfig config = {});

  /// Current state; an open breaker past its cooldown reports kHalfOpen.
  [[nodiscard]] State state(sim::SimTime now) const;

  /// Gate for one call. Closed: always true. Open: false until the cooldown
  /// elapses, then exactly one probe is admitted (half-open). Half-open:
  /// false while the probe is in flight.
  [[nodiscard]] bool AllowRequest(sim::SimTime now);

  /// Outcome feedback from the admitted call.
  void RecordSuccess(sim::SimTime now);
  void RecordFailure(sim::SimTime now);

  /// Failure fraction over the current window (0 when empty).
  [[nodiscard]] double FailureRate() const;
  [[nodiscard]] std::uint64_t opens() const { return opens_; }
  [[nodiscard]] std::uint64_t rejections() const { return rejections_; }

 private:
  void Open(sim::SimTime now);

  CircuitBreakerConfig config_;
  std::deque<bool> outcomes_;  // true = failure; bounded by config_.window
  std::size_t window_failures_ = 0;
  State state_ = State::kClosed;
  sim::SimTime opened_at_ = sim::SimTime::Zero();
  bool probe_in_flight_ = false;
  std::uint64_t opens_ = 0;
  std::uint64_t rejections_ = 0;
};

}  // namespace myrtus::net
