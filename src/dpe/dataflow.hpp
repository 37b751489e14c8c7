// Synchronous dataflow (SDF) application IR — the DPE's high-level
// application model (§V: dataflow dialects, dfg-mlir, MDC multi-dataflow
// composition). Applications are graphs of actors exchanging tokens; the
// balance equations give each actor's repetition count, and transformation
// passes (fusion, partitioning) lower the model toward implementation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/status.hpp"

namespace myrtus::dpe {

/// One SDF actor.
struct Actor {
  std::string name;
  std::uint64_t cycles_per_firing = 1'000'000;
  std::uint64_t state_bytes = 0;   // memory footprint
  bool accelerable = false;        // has an FPGA/CCU kernel implementation
  double parallel_fraction = 0.0;
};

/// A directed edge carrying `produce` tokens per source firing and consuming
/// `consume` tokens per sink firing; each token is `token_bytes`.
struct Channel {
  std::string from;
  std::string to;
  int produce = 1;
  int consume = 1;
  std::uint64_t token_bytes = 1024;
};

class DataflowGraph {
 public:
  util::Status AddActor(Actor actor);
  util::Status AddChannel(Channel channel);

  [[nodiscard]] const std::vector<Actor>& actors() const { return actors_; }
  [[nodiscard]] const std::vector<Channel>& channels() const { return channels_; }
  [[nodiscard]] std::size_t ActorIndex(const std::string& name) const;

  /// Solves the SDF balance equations. Returns the repetition vector
  /// (firings per iteration, indexed like actors()), or FAILED_PRECONDITION
  /// for inconsistent rates.
  [[nodiscard]] util::StatusOr<std::vector<std::uint64_t>> RepetitionVector() const;

  /// True when the graph has no directed cycles (pipelines; cycles would
  /// need initial tokens, which this subset does not model).
  [[nodiscard]] bool IsAcyclic() const;
  /// Actors in topological order (valid only when acyclic).
  [[nodiscard]] util::StatusOr<std::vector<std::size_t>> TopologicalOrder() const;

  /// Total work (cycles) of one graph iteration, weighted by repetitions.
  [[nodiscard]] util::StatusOr<std::uint64_t> IterationCycles() const;
  /// Total bytes crossing channels per iteration.
  [[nodiscard]] util::StatusOr<std::uint64_t> IterationTrafficBytes() const;

  /// --- Transformation passes ---------------------------------------------
  /// Fuses every linear chain (single-producer/single-consumer with matched
  /// rates) into one actor; returns the transformed graph and the number of
  /// fusions applied.
  [[nodiscard]] std::pair<DataflowGraph, int> FuseLinearChains() const;
  /// Partitions actors into `k` groups balancing cycles and minimizing cut
  /// traffic (greedy multilevel-ish heuristic). Returns group per actor.
  [[nodiscard]] std::vector<int> Partition(int k) const;
  /// Cut traffic (bytes/iteration) of a partitioning.
  [[nodiscard]] std::uint64_t CutBytes(const std::vector<int>& partition) const;

 private:
  std::vector<Actor> actors_;
  std::vector<Channel> channels_;
  std::map<std::string, std::size_t> index_;
};

/// Random layered pipeline generator for DSE benchmarks (Fig. 4 workloads).
DataflowGraph RandomPipeline(int actors, util::Rng& rng);

}  // namespace myrtus::dpe
