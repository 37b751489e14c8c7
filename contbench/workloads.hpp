// The three benchmark workloads. Each generates all of its inputs from the
// seed in its constructor (outside every timed region) and then runs any
// number of identical rounds: build and warm the world (timed as set-up),
// run the measured window tick by tick, drain, check, digest.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "harness.hpp"

namespace contbench {

class Workload {
 public:
  virtual ~Workload() = default;
  /// One complete round on a fresh world built from the stored inputs.
  virtual RoundResult Round(Tracer& tracer) = 0;
  /// Builds and warms one world without running the window; returns the
  /// host seconds it took. Adds set-up samples when rounds are few.
  virtual double SetupOnce() = 0;
};

/// The round runner the three workloads share. `World` is built from the
/// inputs and a tracer and offers `bool SetUp(RoundResult&)` (false: a check
/// failed, no window) and `void RunWindow(RoundResult&)`.
template <typename World, typename Inputs>
class WorldWorkload : public Workload {
 public:
  explicit WorldWorkload(Inputs in) : in_(std::move(in)) {}

  RoundResult Round(Tracer& tracer) override {
    RoundResult round;
    const HostClock::time_point t0 = HostClock::now();
    World world(in_, tracer);
    const bool ready = world.SetUp(round);
    round.setup_s = HostSecondsSince(t0);
    if (ready) world.RunWindow(round);
    return round;
  }

  double SetupOnce() override {
    RoundResult scratch;
    Tracer off(false);
    const HostClock::time_point t0 = HostClock::now();
    World world(in_, off);
    // LINT: discard(set-up failures surface in the measured rounds)
    (void)world.SetUp(scratch);
    return HostSecondsSince(t0);
  }

 private:
  Inputs in_;
};

std::unique_ptr<Workload> MakePilotServing(std::uint64_t seed);
std::unique_ptr<Workload> MakeDeployChurn(std::uint64_t seed);
std::unique_ptr<Workload> MakeKbReplicated(std::uint64_t seed);

}  // namespace contbench
