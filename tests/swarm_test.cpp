// PSO convergence, placement solver portfolio (greedy/random/exhaustive/
// PSO/ACO), and FREVO-style rule evolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>

#include "swarm/placement.hpp"
#include "swarm/pso.hpp"
#include "swarm/rules.hpp"

namespace myrtus::swarm {
namespace {

TEST(Pso, MinimizesSphereFunction) {
  util::Rng rng(1);
  const auto sphere = [](const std::vector<double>& x) {
    double s = 0;
    for (const double v : x) s += v * v;
    return s;
  };
  const PsoResult r = MinimizePso(sphere, {-5, -5, -5}, {5, 5, 5}, rng);
  EXPECT_LT(r.best_value, 1e-2);
  EXPECT_GT(r.evaluations, 100);
}

TEST(Pso, MinimizesShiftedRosenbrockIsh) {
  util::Rng rng(2);
  const auto f = [](const std::vector<double>& x) {
    return std::pow(x[0] - 2.0, 2) + 5.0 * std::pow(x[1] + 1.0, 2);
  };
  PsoConfig config;
  config.iterations = 120;
  const PsoResult r = MinimizePso(f, {-10, -10}, {10, 10}, rng, config);
  EXPECT_NEAR(r.best_position[0], 2.0, 0.05);
  EXPECT_NEAR(r.best_position[1], -1.0, 0.05);
}

TEST(Pso, RespectsBounds) {
  util::Rng rng(3);
  const auto f = [](const std::vector<double>& x) { return -x[0]; };  // wants +inf
  const PsoResult r = MinimizePso(f, {0}, {3}, rng);
  EXPECT_LE(r.best_position[0], 3.0);
  EXPECT_NEAR(r.best_position[0], 3.0, 1e-6);
}

TEST(Pso, EmptyProblemIsHarmless) {
  util::Rng rng(4);
  const PsoResult r = MinimizePso([](const std::vector<double>&) { return 0.0; },
                                  {}, {}, rng);
  EXPECT_TRUE(r.best_position.empty());
}

PlacementProblem SmallProblem() {
  PlacementProblem p;
  // Three tasks, one needs an accelerator, one needs security >= 1.
  p.tasks = {
      {1.0, 256, 0, false, 100.0},
      {2.0, 512, 0, true, 10.0},
      {0.5, 128, 1, false, 500.0},
  };
  p.nodes = {
      {"edge-fpga", 4.0, 2048, 0, true, 900.0, 2.0},
      {"fog", 8.0, 8192, 1, false, 400.0, 7.0},
      {"cloud", 64.0, 65536, 2, false, 150.0, 30.0},
  };
  return p;
}

TEST(Placement, GreedyProducesFeasibleSolution) {
  const PlacementProblem p = SmallProblem();
  const PlacementSolution s = SolveGreedy(p);
  EXPECT_TRUE(p.Feasible(s.assignment)) << "cost=" << s.cost;
  // Accelerator task must be on the FPGA node.
  EXPECT_EQ(s.assignment[1], 0);
  // Security-1 task cannot be on the level-0 edge node.
  EXPECT_NE(s.assignment[2], 0);
}

TEST(Placement, ExhaustiveMatchesOrBeatsGreedy) {
  const PlacementProblem p = SmallProblem();
  const PlacementSolution greedy = SolveGreedy(p);
  auto exact = SolveExhaustive(p);
  ASSERT_TRUE(exact.ok());
  EXPECT_LE(exact->cost, greedy.cost + 1e-9);
  EXPECT_TRUE(p.Feasible(exact->assignment));
}

TEST(Placement, ExhaustiveRefusesHugeSpaces) {
  PlacementProblem p;
  p.tasks.resize(30, {0.1, 1, 0, false, 0});
  p.nodes.resize(10, {"n", 100, 1e6, 2, true, 1, 1});
  EXPECT_FALSE(SolveExhaustive(p).ok());
}

TEST(Placement, PsoAndAcoBeatRandom) {
  PlacementProblem p;
  util::Rng setup(7);
  for (int i = 0; i < 12; ++i) {
    p.tasks.push_back({setup.Uniform(0.2, 2.0), setup.Uniform(64, 512),
                       static_cast<int>(setup.NextBounded(2)), setup.NextBool(0.25),
                       setup.Uniform(1, 300)});
  }
  p.nodes = {
      {"e0", 6.0, 4096, 0, true, 800, 2},   {"e1", 6.0, 4096, 1, true, 850, 2},
      {"f0", 16.0, 16384, 1, false, 400, 8}, {"f1", 16.0, 16384, 2, false, 420, 8},
      {"c0", 128.0, 262144, 2, false, 150, 30},
  };
  util::Rng r1(11), r2(12), r3(13);
  // Average several random draws for a fair baseline.
  double random_cost = 0.0;
  for (int i = 0; i < 20; ++i) random_cost += SolveRandom(p, r1).cost;
  random_cost /= 20;
  const PlacementSolution pso = SolvePso(p, r2);
  const PlacementSolution aco = SolveAco(p, r3);
  EXPECT_LT(pso.cost, random_cost);
  EXPECT_LT(aco.cost, random_cost);
  EXPECT_TRUE(p.Feasible(pso.assignment));
  EXPECT_TRUE(p.Feasible(aco.assignment));
}

TEST(Placement, CostPenalizesOverCommit) {
  PlacementProblem p;
  p.tasks = {{4.0, 100, 0, false, 0}, {4.0, 100, 0, false, 0}};
  p.nodes = {{"tiny", 5.0, 1e6, 2, true, 100, 1},
             {"big", 50.0, 1e6, 2, true, 100, 1}};
  // Both on tiny: overcommitted -> must cost far more than split.
  EXPECT_GT(p.Cost({0, 0}), p.Cost({0, 1}) * 100);
  EXPECT_TRUE(p.Feasible({0, 1}));
  EXPECT_FALSE(p.Feasible({0, 0}));
}

// The O(T·N²) greedy SolveGreedy must reproduce: every candidate scored by a
// full Cost of the partial assignment, strict-< argmin in node order.
PlacementSolution ReferenceGreedy(const PlacementProblem& problem) {
  PlacementSolution sol;
  sol.assignment.assign(problem.tasks.size(), -1);
  std::vector<std::size_t> order(problem.tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return problem.tasks[a].cpu > problem.tasks[b].cpu;
  });
  for (const std::size_t t : order) {
    double best_cost = std::numeric_limits<double>::infinity();
    int best_node = -1;
    for (std::size_t n = 0; n < problem.nodes.size(); ++n) {
      ++sol.evaluations;
      std::vector<int> probe = sol.assignment;
      probe[t] = static_cast<int>(n);
      const double cost = problem.Cost(probe);
      if (cost < best_cost) {
        best_cost = cost;
        best_node = static_cast<int>(n);
      }
    }
    sol.assignment[t] = best_node;
  }
  sol.cost = problem.Cost(sol.assignment);
  return sol;
}

// Random problems aimed at the greedy's hard cases: nodes cloned from a few
// templates (exact ties everywhere), zero and negative capacities, capacity
// and memory overruns, security and accelerator infeasibility, more tasks
// than nodes, equal task sizes, and empty node lists.
PlacementProblem RandomGreedyProblem(util::Rng& rng) {
  PlacementProblem p;
  p.energy_weight = rng.NextBool(0.2) ? 0.0 : rng.Uniform(0.1, 2.0);
  p.latency_weight = rng.NextBool(0.2) ? 0.0 : rng.Uniform(0.1, 2.0);
  p.balance_weight = rng.NextBool(0.2) ? 0.0 : rng.Uniform(0.05, 1.0);
  std::vector<PlacementNode> templates(1 + rng.NextBounded(4));
  for (PlacementNode& n : templates) {
    switch (rng.NextBounded(5)) {
      case 0: n.cpu_capacity = 0.0; break;
      case 1: n.cpu_capacity = -rng.Uniform(0.5, 4.0); break;
      default: n.cpu_capacity = rng.Uniform(0.5, 8.0); break;
    }
    switch (rng.NextBounded(5)) {
      case 0: n.mem_capacity_mb = 0.0; break;
      case 1: n.mem_capacity_mb = -64.0; break;
      default: n.mem_capacity_mb = rng.Uniform(64, 4096); break;
    }
    n.security_level = static_cast<int>(rng.NextBounded(3));
    n.has_accelerator = rng.NextBool(0.4);
    n.power_mw_per_cpu = rng.NextBool(0.3) ? 0.0 : rng.Uniform(50, 900);
    n.latency_to_consumer_ms = rng.NextBool(0.1) ? 1e9 : rng.Uniform(0, 30);
  }
  const std::size_t node_count = rng.NextBounded(8) == 0 ? 0 : rng.NextBounded(40);
  for (std::size_t i = 0; i < node_count; ++i) {
    p.nodes.push_back(templates[rng.NextBounded(templates.size())]);
    p.nodes.back().id = "n" + std::to_string(i);
  }
  const std::size_t task_count = 1 + rng.NextBounded(node_count + 12);
  for (std::size_t i = 0; i < task_count; ++i) {
    PlacementTask task;
    task.cpu = rng.NextBool(0.4) ? 0.5 * static_cast<double>(1 + rng.NextBounded(4))
                                 : rng.Uniform(0.0, 6.0);
    task.mem_mb = rng.Uniform(0, 2048);
    task.min_security = static_cast<int>(rng.NextBounded(3));
    task.needs_accelerator = rng.NextBool(0.3);
    task.traffic_kbps = rng.NextBool(0.2) ? 0.0 : rng.Uniform(0, 500);
    p.tasks.push_back(task);
  }
  return p;
}

TEST(Placement, GreedyMatchesFullCostReferenceBitForBit) {
  util::Rng rng(2024, "greedy-equivalence");
  int empty_fleets = 0;
  int more_tasks_than_nodes = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const PlacementProblem p = RandomGreedyProblem(rng);
    if (p.nodes.empty()) ++empty_fleets;
    if (p.tasks.size() > p.nodes.size()) ++more_tasks_than_nodes;
    const PlacementSolution expected = ReferenceGreedy(p);
    const PlacementSolution got = SolveGreedy(p);
    ASSERT_EQ(got.assignment, expected.assignment) << "trial " << trial;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.cost),
              std::bit_cast<std::uint64_t>(expected.cost))
        << "trial " << trial << ": " << got.cost << " vs " << expected.cost;
    ASSERT_EQ(got.evaluations, expected.evaluations) << "trial " << trial;
  }
  // The generator must actually reach the degenerate shapes.
  EXPECT_GT(empty_fleets, 10);
  EXPECT_GT(more_tasks_than_nodes, 50);
}

TEST(Placement, GreedyTiesGoToTheLowestNodeIndex) {
  PlacementProblem p;
  p.tasks = {{1.0, 100, 1, false, 10}};
  p.nodes.assign(5, {"n", 4.0, 1024, 1, false, 100, 5});
  p.nodes[0].security_level = 0;  // too weak; nodes 1-4 tie exactly
  const PlacementSolution s = SolveGreedy(p);
  EXPECT_EQ(s.assignment, std::vector<int>{1});
}

TEST(Rules, TableSizeAndIndexing) {
  RuleSpec spec;
  spec.feature_levels = {3, 4, 2};
  spec.actions = 5;
  EXPECT_EQ(spec.TableSize(), 24u);
  EXPECT_EQ(spec.StateIndex({0, 0, 0}), 0u);
  EXPECT_EQ(spec.StateIndex({2, 3, 1}), 23u);
  EXPECT_EQ(spec.StateIndex({1, 0, 0}), 8u);
  // Out-of-range features clamp instead of overflowing.
  EXPECT_EQ(spec.StateIndex({99, 99, 99}), 23u);
}

TEST(Rules, RandomPolicyActsWithinRange) {
  RuleSpec spec;
  spec.feature_levels = {4, 4};
  spec.actions = 3;
  util::Rng rng(5);
  const RulePolicy p = RulePolicy::Random(spec, rng);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      const int act = p.Act({a, b});
      EXPECT_GE(act, 0);
      EXPECT_LT(act, 3);
    }
  }
}

TEST(Rules, EvolutionLearnsTargetPolicy) {
  // Fitness: match action = (f0 + f1) % actions for every state.
  RuleSpec spec;
  spec.feature_levels = {4, 4};
  spec.actions = 4;
  const auto fitness = [&](const RulePolicy& p) {
    int correct = 0;
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) {
        if (p.Act({a, b}) == (a + b) % 4) ++correct;
      }
    }
    return static_cast<double>(correct);
  };
  util::Rng rng(6);
  GaConfig config;
  config.generations = 60;
  config.population = 40;
  const EvolutionResult r = EvolveRules(spec, fitness, rng, config);
  EXPECT_GE(r.best_fitness, 15.0) << "should learn nearly all 16 states";
  EXPECT_GE(r.fitness_history.size(), 10u);
  // Fitness is monotone non-decreasing over generations (elitism).
  for (std::size_t i = 1; i < r.fitness_history.size(); ++i) {
    EXPECT_GE(r.fitness_history[i] + 1e-9, r.fitness_history[i - 1]);
  }
}

TEST(Rules, EvolutionBeatsRandomBaseline) {
  RuleSpec spec;
  spec.feature_levels = {3, 3, 3};
  spec.actions = 3;
  const auto fitness = [&](const RulePolicy& p) {
    // Reward always choosing action 2 in "overloaded" states (f0 == 2).
    double score = 0;
    for (int a = 0; a < 3; ++a)
      for (int b = 0; b < 3; ++b)
        for (int c = 0; c < 3; ++c)
          if (a == 2 && p.Act({a, b, c}) == 2) score += 1;
    return score;
  };
  util::Rng rng(7);
  const EvolutionResult evolved = EvolveRules(spec, fitness, rng);
  util::Rng rng2(8);
  double random_best = 0;
  for (int i = 0; i < 10; ++i) {
    random_best = std::max(random_best, fitness(RulePolicy::Random(spec, rng2)));
  }
  EXPECT_GT(evolved.best_fitness, random_best);
  EXPECT_NEAR(evolved.best_fitness, 9.0, 1.0);
}

}  // namespace
}  // namespace myrtus::swarm
