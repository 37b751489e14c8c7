// Layer counters read from public accessors: a snapshot when the measured
// window opens, peaks sampled at every tick boundary of a traced round, and
// the deltas turned into the per-layer metrics at the end. Every workload
// reports the same metric set; a layer a workload does not drive reads 0.
#pragma once

#include <cstdint>
#include <vector>

#include "continuum/infrastructure.hpp"
#include "harness.hpp"
#include "kb/cluster.hpp"
#include "kb/store.hpp"
#include "mirto/agent.hpp"
#include "net/transport.hpp"
#include "sched/controller.hpp"

namespace contbench {

namespace continuum = ::myrtus::continuum;
namespace kb = ::myrtus::kb;
namespace mirto = ::myrtus::mirto;
namespace net = ::myrtus::net;
namespace sched = ::myrtus::sched;

struct ProbeTargets {
  sim::Engine* engine = nullptr;
  net::Network* network = nullptr;
  continuum::Infrastructure* infra = nullptr;
  std::vector<sched::Cluster*> clusters;
  std::vector<mirto::MirtoAgent*> agents;
  std::vector<kb::Store*> agent_stores;  // the agents' local KB stores
  kb::KbCluster* kb = nullptr;           // replicated KB (kb-replicated)
  kb::KbClient* kb_client = nullptr;
};

class Probe {
 public:
  explicit Probe(ProbeTargets targets) : t_(std::move(targets)) {}

  /// Snapshot at the start of the measured window.
  void Start();
  /// Samples peak counters; call at tick boundaries of traced rounds.
  void SampleTick();
  /// Fills `round.layer` from counter deltas and, when traced, span stats.
  void Finish(RoundResult& round, const Tracer& tracer);

 private:
  struct Snapshot {
    std::uint64_t events = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t bytes = 0;
    std::uint64_t retries = 0;
    std::uint64_t tasks = 0;
    double energy_mj = 0.0;
    std::uint64_t evictions = 0;
    std::uint64_t reschedules = 0;
    std::uint64_t mape_iterations = 0;
    std::uint64_t nodes_observed = 0;
    std::uint64_t reallocations = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::int64_t store_revision = 0;
    std::int64_t kb_commit = 0;
    std::int64_t kb_term = 0;
    std::uint64_t kb_client_retries = 0;
  };
  [[nodiscard]] Snapshot Take() const;

  ProbeTargets t_;
  Snapshot start_;
  std::uint64_t queue_peak_ = 0;
  std::uint64_t node_queue_peak_ = 0;
  std::uint64_t pending_peak_ = 0;
  std::int64_t commit_lag_peak_ = 0;
};

/// Output check: every pod a cluster reports Running sits on an up node, and
/// no node's committed CPU or memory exceeds its capacity.
void CheckPlacements(const std::vector<sched::Cluster*>& clusters,
                     RoundResult& round);

}  // namespace contbench
