// Locks in the deterministic fork-join contract of util/parallel: any worker
// count — inline serial (0/1) or pooled (2/8) — produces byte-identical
// results, including bodies that consume randomness, and a full MAPE world
// ends in an identical state whether its hot loops ran serial or pooled.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "dpe/pipeline.hpp"
#include "kb/store.hpp"
#include "mirto/agent.hpp"
#include "mirto/engine.hpp"
#include "usecases/scenario.hpp"
#include "util/rng.hpp"

namespace myrtus::util {
namespace {

/// Runs `body` under each worker count and asserts every result equals the
/// serial (workers=1) baseline, bit for bit.
template <typename Fn>
void ExpectWorkerInvariant(Fn&& body) {
  SetParallelWorkers(1);
  const auto baseline = body();
  for (const int workers : {2, 8}) {
    SetParallelWorkers(workers);
    const auto got = body();
    EXPECT_EQ(got, baseline) << "diverged at " << workers << " workers";
  }
  SetParallelWorkers(1);
}

TEST(ParallelShards, CountIsPureFunctionOfN) {
  EXPECT_EQ(ParallelShardCount(0), 0u);
  EXPECT_EQ(ParallelShardCount(1), 1u);
  EXPECT_EQ(ParallelShardCount(63), 63u);
  EXPECT_EQ(ParallelShardCount(64), kParallelMaxShards);
  EXPECT_EQ(ParallelShardCount(100'000), kParallelMaxShards);
  // Worker count must not influence sharding (it would break substreams).
  SetParallelWorkers(8);
  EXPECT_EQ(ParallelShardCount(100'000), kParallelMaxShards);
  SetParallelWorkers(1);
}

TEST(ParallelShards, ShardsTileTheIndexSpaceExactly) {
  for (const std::size_t n : {1u, 7u, 64u, 65u, 1000u}) {
    std::vector<int> hits(n, 0);
    ParallelFor(n, [&](const Shard& shard) {
      EXPECT_EQ(shard.count, ParallelShardCount(n));
      for (std::size_t i = shard.begin; i < shard.end; ++i) ++hits[i];
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i], 1) << "item " << i << " of " << n;
    }
  }
}

TEST(ParallelFor, ByteIdenticalAcrossWorkerCounts) {
  ExpectWorkerInvariant([] {
    std::vector<double> out(10'000);
    ParallelFor(out.size(), [&](const Shard& shard) {
      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        out[i] = static_cast<double>(i) * 1.000000119e-3 + 0.5 / (1.0 + i);
      }
    });
    return out;
  });
}

TEST(ParallelMap, CommitsInItemOrderAtAnyWorkerCount) {
  ExpectWorkerInvariant([] {
    return ParallelMap<std::size_t>(4097, [](std::size_t i) { return i * i; });
  });
}

TEST(ParallelForRng, SubstreamsAreWorkerCountInvariant) {
  ExpectWorkerInvariant([] {
    std::vector<std::uint64_t> draws(997);
    ParallelForRng(draws.size(), 0xABCDEFu, "test.stream",
                   [&](const Shard& shard, Rng& rng) {
                     for (std::size_t i = shard.begin; i < shard.end; ++i) {
                       draws[i] = rng.NextU64();
                     }
                   });
    return draws;
  });
}

TEST(ParallelForRng, ShardRngMatchesDirectSubstreamConstruction) {
  // The substream a shard receives is pinned API behavior, not an accident of
  // the pool: shard i of (seed, stream) is exactly Rng(seed, stream, i).
  constexpr std::uint64_t kSeed = 77;
  std::vector<std::uint64_t> first_draw(8, 0);
  SetParallelWorkers(4);
  ParallelForRng(first_draw.size(), kSeed, "pinned",
                 [&](const Shard& shard, Rng& rng) {
                   // 8 items -> 8 shards, one item each.
                   ASSERT_EQ(shard.size(), 1u);
                   first_draw[shard.index] = rng.NextU64();
                 });
  SetParallelWorkers(1);
  for (std::size_t i = 0; i < first_draw.size(); ++i) {
    Rng direct(kSeed, "pinned", i);
    EXPECT_EQ(first_draw[i], direct.NextU64()) << "substream " << i;
  }
}

TEST(ParallelReduce, FixedFoldOrderMakesFloatSumsExact) {
  ExpectWorkerInvariant([] {
    // Catastrophic-cancellation-prone values: any change in association
    // changes the double result, so equality across worker counts proves the
    // fold order really is fixed.
    return ParallelReduce<double>(
        50'000, 0.0,
        [](std::size_t i) { return 1.0 / (1.0 + static_cast<double>(i * 7)); },
        [](double a, double b) { return a + b; });
  });
}

TEST(ParallelFor, NestedRegionsRunInlineAndStayCorrect) {
  ExpectWorkerInvariant([] {
    std::vector<std::size_t> out(256);
    ParallelFor(out.size(), [&](const Shard& shard) {
      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        // A helper that parallelizes internally must be safe to call from a
        // shard body; the nested region runs inline on this worker.
        out[i] = ParallelReduce<std::size_t>(
            i % 17, std::size_t{0}, [](std::size_t k) { return k + 1; },
            [](std::size_t a, std::size_t b) { return a + b; });
      }
    });
    return out;
  });
}

TEST(ParallelPool, StatsCountRegionsAndItems) {
  const ParallelPoolStats before = ParallelStats();
  SetParallelWorkers(4);
  ParallelFor(100, [](const Shard&) {});
  const ParallelPoolStats after = ParallelStats();
  SetParallelWorkers(1);
  EXPECT_EQ(after.regions, before.regions + 1);
  EXPECT_EQ(after.items, before.items + 100);
  EXPECT_GE(after.shards, before.shards + ParallelShardCount(100));
  EXPECT_GT(after.pooled_regions, before.pooled_regions);
}

// --- Full MAPE world: serial vs pooled state ---------------------------------

/// Deploys the telerehab scenario through a MIRTO agent, runs the periodic
/// MAPE loop for a stretch of simulated time, and fingerprints everything
/// observable: the agent's whole KB (each key's revision and value), the
/// network counters, and engine and scheduler state.
std::string RunMapeWorldFingerprint() {
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  net::Topology topo = infra.topology;
  topo.AddBidirectional("dpe-tool", "gw-0", sim::SimTime::Millis(1), 1e9);
  net::Network network(engine, std::move(topo), 2026);

  sched::Cluster cluster(engine, sched::Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());
  kb::Store store;
  mirto::AgentConfig config;
  config.host = "gw-0";
  mirto::MirtoAgent agent(network, cluster, infra, store,
                          mirto::AuthModule(util::BytesOf("par-secret")),
                          config);
  agent.Start();

  usecases::Scenario scenario = usecases::TelerehabScenario();
  dpe::DpePipeline pipeline(5);
  auto design = pipeline.Run(scenario.dpe_input);
  EXPECT_TRUE(design.ok());

  mirto::AuthModule client(util::BytesOf("par-secret"));
  bool deployed = false;
  network.Call("dpe-tool", "gw-0", "mirto.deploy",
               util::Json::MakeObject()
                   .Set("token", client.IssueToken("dpe-tool"))
                   .Set("csar", design->package.Pack()),
               [&](util::StatusOr<util::Json> r) { deployed = r.ok(); });
  engine.RunUntil(sim::SimTime::Seconds(8));
  EXPECT_TRUE(deployed);

  std::ostringstream fp;
  fp.precision(17);
  for (const kb::KeyValue& kv : store.Range("/")) {
    fp << kv.key << '|' << kv.mod_revision << '|' << kv.value.Dump() << '\n';
  }
  // Non-vacuity: the MAPE loop must have published every node's record, or
  // a diverging pooled run could leave both fingerprints equally empty.
  for (const auto& node : infra.nodes) {
    EXPECT_TRUE(store.Get("/registry/nodes/" + node->id()).ok())
        << "no KB record for node " << node->id();
  }
  fp << "bytes=" << network.bytes_sent() << '\n';
  fp << "delivered=" << network.messages_delivered() << '\n';
  fp << "dropped=" << network.messages_dropped() << '\n';
  fp << "retries=" << network.retries() << '\n';
  fp << "pods=" << cluster.RunningPods() << '\n';
  fp << "events=" << engine.executed_events() << '\n';
  for (const std::string& app : agent.DeployedApps()) fp << app << '\n';
  return fp.str();
}

TEST(ParallelMapeWorld, StateIsIdenticalSerialVsPooled) {
  SetParallelWorkers(1);
  const std::string serial = RunMapeWorldFingerprint();
  ASSERT_FALSE(serial.empty());
  SetParallelWorkers(8);
  const std::string pooled = RunMapeWorldFingerprint();
  SetParallelWorkers(1);
  ASSERT_EQ(serial.size(), pooled.size());
  EXPECT_EQ(serial, pooled) << "MAPE world diverged between serial and pooled";
}

}  // namespace
}  // namespace myrtus::util
