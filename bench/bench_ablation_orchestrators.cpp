// Experiment A1 (§IV claim): AI-driven orchestration beats static baselines.
// Runs both use cases under every placement strategy (static kube pipeline,
// greedy cost model, PSO, ACO, random floor) and reports placement cost,
// end-to-end KPIs, and energy — expected shape: swarm/greedy < static <
// random on combined cost, with the gap widening as the fleet grows.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench/report.hpp"
#include "mirto/managers.hpp"
#include "usecases/scenario.hpp"

using namespace myrtus;
using mirto::PlacementStrategy;

namespace {

struct RunResult {
  double p95_ms = 0;
  double violation_rate = 0;
  double energy_mj = 0;
  std::uint64_t completed = 0;
  bool deployed = false;
};

RunResult RunScenario(PlacementStrategy strategy, bool mobility, int edge_scale) {
  sim::Engine engine;
  continuum::InfrastructureSpec spec;
  spec.edge_hmpsoc = 2 * edge_scale;
  spec.edge_riscv = edge_scale;
  spec.edge_multicore = edge_scale;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, spec);
  net::Network network(engine, infra.topology, 23);
  sched::Cluster cluster(engine, sched::Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());

  usecases::Scenario scenario =
      mobility ? usecases::SmartMobilityScenario() : usecases::TelerehabScenario();

  // Place stage pods through the WL Manager under the chosen strategy.
  mirto::WlManager wl(cluster, strategy, 31);
  mirto::NetworkManager netmgr(infra.topology);
  std::vector<sched::PodSpec> pods;
  for (const usecases::Stage& stage : scenario.stages) {
    sched::PodSpec pod;
    pod.name = scenario.name + "/" + stage.pod_name;
    pod.cpu_request = stage.cpu_request;
    pod.mem_request_mb = stage.mem_request_mb;
    pod.min_security = stage.min_security;
    pod.needs_accelerator = stage.demand.accelerable;
    pod.layer_affinity = stage.layer_affinity;
    pods.push_back(pod);
  }
  std::vector<std::string> node_ids;
  for (sched::NodeState* ns : cluster.NodeStates()) {
    node_ids.push_back(ns->node->id());
  }
  const std::vector<double> costs =
      netmgr.LatencyCostMs(scenario.source_host, netmgr.ResolveHosts(node_ids));

  RunResult result;
  auto directives = wl.PlanPlacement(pods, costs, {});
  if (!directives.ok()) return result;
  if (!wl.Execute(pods, *directives).ok()) return result;
  result.deployed = true;

  usecases::RequestPipeline pipeline(network, infra, cluster, scenario);
  pipeline.StartStream(sim::SimTime::Seconds(5), 37);
  engine.RunUntil(sim::SimTime::Seconds(12));

  const usecases::ScenarioKpis& kpis = pipeline.kpis();
  result.p95_ms = kpis.latency_ms.p95();
  result.violation_rate = kpis.ViolationRate();
  result.energy_mj = kpis.compute_energy_mj;
  result.completed = kpis.completed;
  return result;
}

void PrintComparison(bench::Report& report) {
  std::printf("=== A1: orchestration strategies on both use cases ===\n");
  for (const int scale : {1, 3}) {
    for (const bool mobility : {true, false}) {
      std::printf("\n-- %s, edge fleet x%d --\n",
                  mobility ? "smart-mobility" : "telerehab", scale);
      std::printf("%-12s | %-9s | %-10s | %-12s | %-9s\n", "strategy",
                  "p95 (ms)", "viol. rate", "energy (mJ)", "frames");
      for (const auto strategy :
           {PlacementStrategy::kRandom, PlacementStrategy::kStaticKube,
            PlacementStrategy::kGreedy, PlacementStrategy::kPso,
            PlacementStrategy::kAco}) {
        const RunResult r = RunScenario(strategy, mobility, scale);
        if (!r.deployed) {
          std::printf("%-12s | failed to place all stages\n",
                      std::string(PlacementStrategyName(strategy)).c_str());
          continue;
        }
        std::printf("%-12s | %9.2f | %9.1f%% | %12.1f | %9llu\n",
                    std::string(PlacementStrategyName(strategy)).c_str(),
                    r.p95_ms, r.violation_rate * 100, r.energy_mj,
                    static_cast<unsigned long long>(r.completed));
        // Headline cell: greedy on smart-mobility at the base fleet size.
        if (strategy == PlacementStrategy::kGreedy && mobility && scale == 1) {
          report.AddMetric("greedy_mobility_p95_ms", r.p95_ms, "ms");
          report.AddMetric("greedy_mobility_violation_rate", r.violation_rate,
                           "fraction");
          report.AddMetric("greedy_mobility_energy_mj", r.energy_mj, "mJ");
          report.AddMetric("greedy_mobility_frames",
                           static_cast<double>(r.completed), "frames",
                           /*higher_is_better=*/true);
        }
      }
    }
  }
  std::printf("\n");
}

void BM_StrategyEndToEnd(benchmark::State& state) {
  const auto strategy = static_cast<PlacementStrategy>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunScenario(strategy, true, 1));
  }
  state.SetLabel(std::string(PlacementStrategyName(strategy)));
}
BENCHMARK(BM_StrategyEndToEnd)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->ArgNames({"strategy"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = bench::StripValueFlag(argc, argv, "--out=", "");
  bench::Report report("A1_orchestrator_ablation", "orchestrators");
  report.set_seed(31);
  report.set_sim_ms(12'000.0);
  PrintComparison(report);
  util::MustOk(report.Write(out_path));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
