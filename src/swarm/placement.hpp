// Workload-to-node placement as a combinatorial optimization problem, with
// the solver portfolio §IV sketches for the MIRTO Manager: greedy and random
// baselines, exhaustive search (ground truth at small sizes), PSO on a
// continuous relaxation, and Ant Colony Optimization on the assignment graph.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/status.hpp"

namespace myrtus::swarm {

/// One task to place.
struct PlacementTask {
  double cpu = 0.0;
  double mem_mb = 0.0;
  int min_security = 0;
  bool needs_accelerator = false;
  double traffic_kbps = 0.0;  // data produced toward its consumer
};

/// One candidate node.
struct PlacementNode {
  std::string id;
  double cpu_capacity = 0.0;
  double mem_capacity_mb = 0.0;
  int security_level = 0;
  bool has_accelerator = false;
  double power_mw_per_cpu = 0.0;   // energy proxy
  double latency_to_consumer_ms = 0.0;
};

struct PlacementProblem {
  std::vector<PlacementTask> tasks;
  std::vector<PlacementNode> nodes;
  double energy_weight = 1.0;
  double latency_weight = 1.0;
  double balance_weight = 0.25;

  /// Cost of an assignment (task i -> assignment[i]); infeasible assignments
  /// (capacity/security/accelerator violations) cost +infinity-ish penalties
  /// so every solver can rank partial feasibility.
  [[nodiscard]] double Cost(const std::vector<int>& assignment) const;
  [[nodiscard]] bool Feasible(const std::vector<int>& assignment) const;
};

struct PlacementSolution {
  std::vector<int> assignment;  // tasks.size() entries, node index each
  double cost = 0.0;
  int evaluations = 0;
};

/// Best-fit greedy: tasks in descending cpu order, each to the node that
/// minimizes Cost of the partial assignment (unplaced tasks count as
/// violations); ties go to the lowest node index. Each candidate is scored
/// with the same floating-point additions as Cost, in the same order, minus
/// additions of exactly +0.0 (the terms of empty nodes), so the argmin is
/// Cost's bit for bit. One candidate costs O(T + nodes holding a task), one
/// solve O(T·N·(T + touched)) for T tasks and N nodes; `evaluations` is T·N.
PlacementSolution SolveGreedy(const PlacementProblem& problem);
/// Uniform random feasible-ish assignment (baseline).
PlacementSolution SolveRandom(const PlacementProblem& problem, util::Rng& rng);
/// Exhaustive search. Only for tasks^nodes <= ~2e6 states; returns
/// INVALID_ARGUMENT above that.
util::StatusOr<PlacementSolution> SolveExhaustive(const PlacementProblem& problem);
/// PSO over a continuous relaxation (positions rounded to node indices).
PlacementSolution SolvePso(const PlacementProblem& problem, util::Rng& rng,
                           int particles = 32, int iterations = 80);
/// Ant colony optimization with pheromones on (task, node) pairs.
PlacementSolution SolveAco(const PlacementProblem& problem, util::Rng& rng,
                           int ants = 24, int iterations = 60,
                           double evaporation = 0.35);

}  // namespace myrtus::swarm
