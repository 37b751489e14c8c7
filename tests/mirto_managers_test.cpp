// The four MIRTO Manager drivers in isolation.
#include <gtest/gtest.h>

#include "continuum/infrastructure.hpp"
#include "mirto/managers.hpp"

namespace myrtus::mirto {
namespace {

using continuum::BuildInfrastructure;
using continuum::Infrastructure;

struct Fixture {
  sim::Engine engine;
  Infrastructure infra;
  sched::Cluster cluster;

  Fixture() : infra(BuildInfrastructure(engine, {})),
              cluster(engine, sched::Scheduler::Default()) {
    for (auto& n : infra.nodes) cluster.AddNode(n.get());
  }
};

std::vector<sched::PodSpec> SamplePods() {
  std::vector<sched::PodSpec> pods;
  sched::PodSpec a;
  a.name = "detector";
  a.cpu_request = 1.0;
  a.needs_accelerator = true;
  pods.push_back(a);
  sched::PodSpec b;
  b.name = "aggregator";
  b.cpu_request = 2.0;
  b.min_security = security::SecurityLevel::kMedium;
  pods.push_back(b);
  sched::PodSpec c;
  c.name = "archiver";
  c.cpu_request = 0.5;
  pods.push_back(c);
  return pods;
}

class WlStrategyTest : public ::testing::TestWithParam<PlacementStrategy> {};

TEST_P(WlStrategyTest, PlansAndExecutesFeasiblePlacement) {
  Fixture f;
  WlManager wl(f.cluster, GetParam(), 7);
  NetworkManager netmgr(f.infra.topology);
  std::vector<std::string> node_ids;
  for (sched::NodeState* ns : f.cluster.NodeStates()) {
    node_ids.push_back(ns->node->id());
  }
  const std::vector<double> costs = netmgr.LatencyCostMs(
      f.infra.DefaultGateway(), netmgr.ResolveHosts(node_ids));

  const auto pods = SamplePods();
  auto directives = wl.PlanPlacement(pods, costs, {});
  ASSERT_TRUE(directives.ok()) << directives.status();
  ASSERT_TRUE(wl.Execute(pods, *directives).ok());
  EXPECT_EQ(f.cluster.RunningPods(), 3u);

  // Hard constraints hold regardless of strategy.
  const sched::PodView detector = f.cluster.FindPod("detector");
  ASSERT_TRUE(detector.valid());
  EXPECT_TRUE(f.cluster.FindNodeState(detector.node_id())->HasAccelerator());
  const sched::PodView aggregator = f.cluster.FindPod("aggregator");
  ASSERT_TRUE(aggregator.valid());
  EXPECT_TRUE(security::Satisfies(
      f.infra.FindNode(aggregator.node_id())->security_level(),
      security::SecurityLevel::kMedium));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, WlStrategyTest,
    ::testing::Values(PlacementStrategy::kStaticKube, PlacementStrategy::kGreedy,
                      PlacementStrategy::kPso, PlacementStrategy::kAco),
    [](const auto& suite_info) {
      std::string name(PlacementStrategyName(suite_info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(WlManager, VetoedNodesAreAvoided) {
  Fixture f;
  WlManager wl(f.cluster, PlacementStrategy::kGreedy, 7);
  sched::PodSpec pod;
  pod.name = "vision";
  pod.needs_accelerator = true;
  pod.layer_affinity = "edge";
  // Veto every accelerator edge node except edge-1.
  std::vector<std::string> vetoed = {"edge-0", "edge-2", "edge-3"};
  auto directives = wl.PlanPlacement({pod}, {}, vetoed);
  ASSERT_TRUE(directives.ok());
  ASSERT_TRUE(directives->count("vision") > 0);
  EXPECT_EQ(directives->at("vision"), "edge-1");
}

TEST(WlManager, StaticKubeProducesNoDirectives) {
  Fixture f;
  WlManager wl(f.cluster, PlacementStrategy::kStaticKube, 7);
  auto directives = wl.PlanPlacement(SamplePods(), {}, {});
  ASSERT_TRUE(directives.ok());
  EXPECT_TRUE(directives->empty());
}

TEST(NodeManager, HotDevicePromotedToFastestPoint) {
  sim::Engine engine;
  continuum::ComputeNode node(engine, "n", continuum::Layer::kEdge, "multicore",
                              security::SecurityLevel::kLow, 1024);
  node.AddDevice(continuum::MakeBigCore("n/big"));
  ASSERT_TRUE(node.mutable_device(0).SetOperatingPoint(2).ok());  // eco

  // Saturate the device: utilization -> ~1.
  continuum::TaskDemand heavy;
  heavy.cycles = 2'000'000'000;
  node.Submit(heavy, 0, nullptr);
  engine.RunUntil(sim::SimTime::Millis(500));

  NodeManager mgr;
  auto decisions = mgr.PlanNode(node);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_TRUE(decisions[0].changed);
  EXPECT_EQ(decisions[0].operating_point, 0u);
  ASSERT_TRUE(mgr.Execute(node, decisions[0]).ok());
  EXPECT_EQ(node.devices()[0].active_point_index(), 0u);
  EXPECT_EQ(mgr.reconfigurations(), 1u);
}

TEST(NodeManager, IdleDeviceDemotedToEco) {
  sim::Engine engine;
  continuum::ComputeNode node(engine, "n", continuum::Layer::kEdge, "multicore",
                              security::SecurityLevel::kLow, 1024);
  node.AddDevice(continuum::MakeBigCore("n/big"));
  engine.RunUntil(sim::SimTime::Seconds(1));  // fully idle
  NodeManager mgr;
  auto decisions = mgr.PlanNode(node);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_TRUE(decisions[0].changed);
  EXPECT_EQ(decisions[0].operating_point,
            node.devices()[0].operating_points().size() - 1);
}

TEST(NodeManager, MidUtilizationHolds) {
  sim::Engine engine;
  continuum::ComputeNode node(engine, "n", continuum::Layer::kEdge, "multicore",
                              security::SecurityLevel::kLow, 1024);
  node.AddDevice(continuum::MakeBigCore("n/big"));
  // ~50% utilization.
  continuum::TaskDemand task;
  task.cycles = 1'440'000'000;  // 500ms at 1.8GHz*1.6
  node.Submit(task, 0, nullptr);
  engine.RunUntil(sim::SimTime::Seconds(1));
  NodeManager mgr;
  auto decisions = mgr.PlanNode(node);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_FALSE(decisions[0].changed);
}

TEST(NetworkManager, LatencyCostsFollowTopology) {
  Fixture f;
  NetworkManager mgr(f.infra.topology);
  const std::vector<double> costs = mgr.LatencyCostMs(
      "gw-0", mgr.ResolveHosts({"edge-0", "fmdc-0", "cloud-0"}));
  ASSERT_EQ(costs.size(), 3u);
  EXPECT_NEAR(costs[0], 2.0, 0.01);
  EXPECT_NEAR(costs[1], 5.0, 0.01);
  EXPECT_NEAR(costs[2], 30.0, 0.01);
  auto nearest = mgr.NearestNode("gw-0", {"fmdc-0", "cloud-0"});
  ASSERT_TRUE(nearest.ok());
  EXPECT_EQ(*nearest, "fmdc-0");
}

TEST(NetworkManager, UnreachableNodesGetInfiniteCost) {
  net::Topology topo;
  topo.AddHost("island");
  topo.AddBidirectional("a", "b", sim::SimTime::Millis(1), 1e9);
  NetworkManager mgr(topo);
  const std::vector<double> costs =
      mgr.LatencyCostMs("a", mgr.ResolveHosts({"b", "island"}));
  ASSERT_EQ(costs.size(), 2u);
  EXPECT_LT(costs[0], 10.0);
  EXPECT_GE(costs[1], 1e9);
  EXPECT_FALSE(mgr.NearestNode("a", {"island"}).ok());
}

// The distance row must price every host exactly as the route walk does:
// FindRoute's propagation for reachable hosts, 0 for the anchor itself and
// 1e9 for unknown or unreachable hosts.
TEST(NetworkManager, LatencyCostsMatchFindRouteForEveryHost) {
  Fixture f;
  f.infra.topology.AddHost("island");
  std::vector<std::string> hosts;
  for (const auto& n : f.infra.nodes) hosts.push_back(n->id());
  const std::string anchor = f.infra.DefaultGateway();
  hosts.push_back(anchor);
  hosts.push_back("island");
  hosts.push_back("no-such-host");
  NetworkManager mgr(f.infra.topology);
  const std::vector<double> costs =
      mgr.LatencyCostMs(anchor, mgr.ResolveHosts(hosts));
  ASSERT_EQ(costs.size(), hosts.size());
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const auto route = f.infra.topology.FindRoute(anchor, hosts[i]);
    const double expected = route.ok() ? route->propagation.ToMillisF() : 1e9;
    EXPECT_EQ(costs[i], expected) << hosts[i];
  }
  EXPECT_EQ(costs[hosts.size() - 3], 0.0);
  EXPECT_EQ(costs[hosts.size() - 2], 1e9);
  EXPECT_EQ(costs[hosts.size() - 1], 1e9);
  // An unknown anchor prices every host as unreachable.
  for (const double ms : mgr.LatencyCostMs("no-anchor", mgr.ResolveHosts(hosts))) {
    EXPECT_EQ(ms, 1e9);
  }
}

TEST(NetworkManager, NearestNodeBreaksTiesByIdOrder) {
  net::Topology topo;
  topo.AddBidirectional("gw", "n-b", sim::SimTime::Millis(1), 1e9);
  topo.AddBidirectional("gw", "n-a", sim::SimTime::Millis(1), 1e9);
  topo.AddBidirectional("gw", "n-c", sim::SimTime::Millis(3), 1e9);
  NetworkManager mgr(topo);
  auto nearest = mgr.NearestNode("gw", {"n-c", "n-b", "n-a"});
  ASSERT_TRUE(nearest.ok());
  EXPECT_EQ(*nearest, "n-a");
}

TEST(SecurityManager, TrustDecaysOnFailuresAndRecovers) {
  PrivacySecurityManager psm(0.4);
  EXPECT_DOUBLE_EQ(psm.TrustOf("edge-0"), 1.0);
  for (int i = 0; i < 3; ++i) psm.RecordOutcome("edge-0", false);
  EXPECT_LT(psm.TrustOf("edge-0"), 0.4);
  EXPECT_EQ(psm.VetoedNodes(), std::vector<std::string>{"edge-0"});
  for (int i = 0; i < 60; ++i) psm.RecordOutcome("edge-0", true);
  EXPECT_GT(psm.TrustOf("edge-0"), 0.9);
  EXPECT_TRUE(psm.VetoedNodes().empty());
}

TEST(SecurityManager, PermitsChecksLevelAndTrust) {
  sim::Engine engine;
  continuum::ComputeNode low_node(engine, "edge-x", continuum::Layer::kEdge,
                                  "riscv", security::SecurityLevel::kLow, 512);
  continuum::ComputeNode high_node(engine, "fmdc-x", continuum::Layer::kFog,
                                   "fmdc", security::SecurityLevel::kHigh, 4096);
  PrivacySecurityManager psm(0.4);
  sched::PodSpec secure;
  secure.min_security = security::SecurityLevel::kHigh;
  EXPECT_FALSE(psm.Permits(secure, low_node));
  EXPECT_TRUE(psm.Permits(secure, high_node));
  for (int i = 0; i < 5; ++i) psm.RecordOutcome("fmdc-x", false);
  EXPECT_FALSE(psm.Permits(secure, high_node)) << "distrusted node vetoed";
}

TEST(SecurityManager, PublishesTrustToRegistry) {
  kb::Store store;
  kb::ResourceRegistry registry(store);
  registry.PutNode({.node_id = "edge-0", .layer = "edge"});
  PrivacySecurityManager psm;
  psm.RecordOutcome("edge-0", false);
  psm.PublishTrust(registry);
  auto record = registry.GetNode("edge-0");
  ASSERT_TRUE(record.ok());
  EXPECT_NEAR(record->trust_score, 0.7, 1e-9);
}

}  // namespace
}  // namespace myrtus::mirto
