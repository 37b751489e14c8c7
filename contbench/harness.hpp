// Shared machinery of the continuum benchmark: host timers, the in-memory
// span tracer, the per-round result every workload fills, percentile and
// digest helpers, and the per-tick loop that advances the simulation in
// fixed simulated-time steps while timing each step on the host.
//
// Two time bases never mix: host time (std::chrono::steady_clock, the speed
// of this program) and simulated time (sim::SimTime, what the modelled users
// see). Host-time fields end in _host_*, simulated ones in _sim_* or are
// plain sim::SimTime values.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/stats.hpp"

namespace contbench {

namespace sim = ::myrtus::sim;
namespace util = ::myrtus::util;

/// Host time is the CPU time of the calling thread: the benchmark is single
/// threaded, so on an idle machine it equals wall time, and on a shared one
/// the time the process spends descheduled does not count against it.
struct HostClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<HostClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept;
};

/// Host seconds elapsed since `start`.
double HostSecondsSince(HostClock::time_point start);

/// Layer boundaries the benchmark wraps with spans. Each is one public call
/// the benchmark makes into a layer (or, for kAdmit, the benchmark's own
/// admission handler that issues the mirto/tosca calls).
enum class SpanName : std::uint8_t {
  kSimTick,         // sim::Engine::RunUntil for one fixed tick
  kLaunch,          // usecases::RequestPipeline::LaunchRequest
  kKbPut,           // kb::KbClient::Put
  kKbGet,           // kb::KbClient::Get
  kNetCall,         // net::Network::Call issued by the benchmark
  kAdmit,           // admission handler body (parent of the next four)
  kAuth,            // mirto::AuthModule::Authenticate
  kUnpack,          // tosca::CsarPackage::Unpack
  kDeploy,          // mirto::MirtoAgent::Deploy
  kUndeploy,        // mirto::MirtoAgent::Undeploy
  kCount,
};
std::string_view SpanNameString(SpanName name);

struct Span {
  SpanName name = SpanName::kSimTick;
  std::int32_t parent = -1;   // index into the span vector, -1 = root
  std::uint64_t op = 0;       // operation id (0 = not tied to one operation)
  std::int64_t start_ns = 0;  // host ns since the tracer was created
  std::int64_t end_ns = 0;
};

/// Records spans in memory; disabled tracers record nothing and cost one
/// branch per boundary. Spans nest through an explicit open-span stack, so
/// a span opened inside a simulation callback becomes a child of the tick
/// span that is running the engine.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Opens a span; returns its index (-1 when disabled).
  std::int32_t Begin(SpanName name, std::uint64_t op);
  void End(std::int32_t index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Per span name: total duration, self time (duration minus the time its
  /// direct children cover) and every duration, in host seconds.
  struct NameStats {
    double total_s = 0.0;
    double self_s = 0.0;
    util::Samples durations_us;
  };
  [[nodiscard]] std::vector<NameStats> Summarize() const;
  /// Writes all spans as tab-separated rows; returns false on I/O failure.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  HostClock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, SpanName name, std::uint64_t op = 0)
      : tracer_(tracer), index_(tracer.Begin(name, op)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

/// Everything one round (set-up + measured window) of a workload produces.
struct RoundResult {
  // --- host time ---------------------------------------------------------
  double setup_s = 0.0;
  std::vector<double> tick_host_ms;  // one per fixed simulated tick
  // Host time of the call that admits each operation, in issue order: the
  // admission handler (deploy-churn), LaunchRequest (pilot-serving),
  // KbClient::Put/Get (kb-replicated); and the tick it ran in.
  std::vector<double> op_host_ms;
  std::vector<std::uint32_t> op_tick;
  // Speed probes taken between ticks: (tick index, probe host seconds).
  std::vector<std::pair<std::uint32_t, double>> probes;
  // --- operation accounting (simulated outcomes) --------------------------
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t refused = 0;  // the system answered "no" (capacity, stage
                              // down, not leader, unknown app)
  std::uint64_t failed = 0;   // no answer, or an error that is no refusal
  std::uint64_t deadline_missed = 0;  // refused + failed + late completions
  std::vector<double> sim_latency_ms;
  std::vector<double> recovery_ms;  // one per injected fault
  // --- checks --------------------------------------------------------------
  std::vector<std::string> check_failures;
  std::uint64_t digest = 0;
  // --- per-layer metrics (filled on every round; read from traced ones) ---
  std::map<std::string, double> layer;

  void RecordOp(double host_ms) {
    op_host_ms.push_back(host_ms);
    op_tick.push_back(static_cast<std::uint32_t>(tick_host_ms.size()));
  }
};

/// FNV-1a accumulation over the simulated-time results of a round.
class Digest {
 public:
  void Add(std::uint64_t v);
  void Add(std::int64_t v) { Add(static_cast<std::uint64_t>(v)); }
  void Add(std::string_view s);
  /// Doubles enter by their bit pattern: the digest checks exact repetition.
  void AddDouble(double v);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Linear-interpolation quantile of `xs` (copied and sorted); 0 when empty.
double Quantile(std::vector<double> xs, double q);
double Median(std::vector<double> xs);
double Mean(const std::vector<double>& xs);
/// Every sample a util::Samples holds, in ascending order: linear
/// interpolation at i/(n-1) lands exactly on the i-th order statistic.
std::vector<double> SortedSamples(const util::Samples& samples);

/// Host seconds of a small fixed kernel (sorting, map updates, string
/// hashing), fastest of two repetitions: a probe of how fast the machine
/// runs this thread right now. On a shared host the same code runs up to a
/// third slower for seconds or minutes at a time (sibling hyperthreads and
/// caches busy with other tenants), and CPU time does not exclude that.
double SpeedProbeSeconds();
/// The probe's time at the reference speed all host times are scaled to:
/// about its fastest on the 2.0 GHz Xeon VM the benchmark was tuned on.
inline constexpr double kReferenceProbeS = 900e-6;

/// "VmHWM" of this process in MB (0 when /proc is unavailable).
double PeakRssMb();

/// Advances `engine` from its current time to `end` in steps of `tick`,
/// timing each RunUntil on the host into `round.tick_host_ms` and wrapping
/// it in a kSimTick span. `at_boundary` runs after every tick (outside the
/// timed region) so counters can be sampled at tick boundaries; a speed
/// probe runs before the first tick and after every kProbeEvery ticks.
inline constexpr std::uint32_t kProbeEvery = 200;
void RunTicks(sim::Engine& engine, sim::SimTime end, sim::SimTime tick,
              Tracer& tracer, RoundResult& round,
              const std::function<void()>& at_boundary);

}  // namespace contbench
