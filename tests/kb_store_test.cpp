// MVCC store semantics: revisions, ranges, watches — and the
// ResourceRegistry schema on top.
#include <gtest/gtest.h>

#include "kb/registry.hpp"
#include "kb/store.hpp"

namespace myrtus::kb {
namespace {

TEST(Store, PutBumpsRevisionAndVersion) {
  Store s;
  EXPECT_EQ(s.revision(), 0);
  s.Put("/a", util::Json(1));
  s.Put("/a", util::Json(2));
  auto kv = s.Get("/a");
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(kv->value.as_int(), 2);
  EXPECT_EQ(kv->create_revision, 1);
  EXPECT_EQ(kv->mod_revision, 2);
  EXPECT_EQ(kv->version, 2);
  EXPECT_EQ(s.revision(), 2);
}

TEST(Store, GetMissingIsNotFound) {
  Store s;
  EXPECT_EQ(s.Get("/nope").status().code(), util::StatusCode::kNotFound);
}

TEST(Store, DeleteRemovesAndBumpsRevision) {
  Store s;
  s.Put("/a", util::Json(1));
  auto rev = s.Delete("/a");
  ASSERT_TRUE(rev.has_value());
  EXPECT_EQ(*rev, 2);
  EXPECT_FALSE(s.Get("/a").ok());
  EXPECT_FALSE(s.Delete("/a").has_value());
  EXPECT_EQ(s.revision(), 2);  // deleting a missing key is not a mutation
}

TEST(Store, RecreatedKeyGetsNewCreateRevision) {
  Store s;
  s.Put("/a", util::Json(1));
  s.Delete("/a");
  s.Put("/a", util::Json(2));
  auto kv = s.Get("/a");
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(kv->create_revision, 3);
  EXPECT_EQ(kv->version, 1);
}

TEST(Store, RangeReturnsPrefixInOrder) {
  Store s;
  s.Put("/nodes/b", util::Json(2));
  s.Put("/nodes/a", util::Json(1));
  s.Put("/nodes/c", util::Json(3));
  s.Put("/other/x", util::Json(9));
  auto range = s.Range("/nodes/");
  ASSERT_EQ(range.size(), 3u);
  EXPECT_EQ(range[0].key, "/nodes/a");
  EXPECT_EQ(range[2].key, "/nodes/c");
  EXPECT_TRUE(s.Range("/missing/").empty());
}

TEST(Store, WatchFiresOnPrefixOnly) {
  Store s;
  std::vector<std::string> seen;
  s.Watch("/nodes/", [&](const WatchEvent& e) { seen.push_back(e.kv.key); });
  s.Put("/nodes/a", util::Json(1));
  s.Put("/pods/x", util::Json(2));
  s.Put("/nodes/b", util::Json(3));
  EXPECT_EQ(seen, (std::vector<std::string>{"/nodes/a", "/nodes/b"}));
}

TEST(Store, WatchSeesDeletesWithLastValue) {
  Store s;
  s.Put("/a", util::Json(42));
  WatchEvent::Type seen_type{};
  util::Json last_value;
  s.Watch("/a", [&](const WatchEvent& e) {
    seen_type = e.type;
    last_value = e.kv.value;
  });
  s.Delete("/a");
  EXPECT_EQ(seen_type, WatchEvent::Type::kDelete);
  EXPECT_EQ(last_value.as_int(), 42);
}

TEST(Store, CancelWatchStopsEvents) {
  Store s;
  int events = 0;
  const std::int64_t id = s.Watch("/", [&](const WatchEvent&) { ++events; });
  s.Put("/a", util::Json(1));
  s.CancelWatch(id);
  s.Put("/b", util::Json(2));
  EXPECT_EQ(events, 1);
}

TEST(Registry, NodeRecordRoundtrip) {
  NodeRecord r;
  r.node_id = "edge-3";
  r.layer = "edge";
  r.kind = "hmpsoc";
  r.cpu_capacity = 4;
  r.cpu_allocated = 1.5;
  r.mem_capacity_mb = 2048;
  r.security_level = 2;
  r.has_accelerator = true;
  r.energy_mj = 850.5;
  r.trust_score = 0.93;
  auto back = NodeRecord::FromJson(r.ToJson());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->node_id, "edge-3");
  EXPECT_EQ(back->kind, "hmpsoc");
  EXPECT_DOUBLE_EQ(back->cpu_allocated, 1.5);
  EXPECT_DOUBLE_EQ(back->energy_mj, 850.5);
  EXPECT_EQ(back->security_level, 2);
  EXPECT_TRUE(back->has_accelerator);
  EXPECT_DOUBLE_EQ(back->trust_score, 0.93);
}

TEST(Registry, NodeRecordDecodesLegacyEnergyKey) {
  // Records written before the energy_mw -> energy_mj rename carried
  // millijoules under the old key; FromJson must still pick them up.
  util::Json legacy = util::Json::MakeObject()
                          .Set("node_id", "edge-9")
                          .Set("energy_mw", 123.25);
  auto back = NodeRecord::FromJson(legacy);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back->energy_mj, 123.25);
}

TEST(Registry, NodeRecordRejectsGarbage) {
  EXPECT_FALSE(NodeRecord::FromJson(util::Json(3)).ok());
  EXPECT_FALSE(NodeRecord::FromJson(util::Json::MakeObject()).ok());
}

TEST(Registry, ListNodesFiltersByLayer) {
  Store store;
  ResourceRegistry reg(store);
  NodeRecord e{.node_id = "e0", .layer = "edge"};
  NodeRecord f{.node_id = "f0", .layer = "fog"};
  NodeRecord c{.node_id = "c0", .layer = "cloud"};
  reg.PutNode(e);
  reg.PutNode(f);
  reg.PutNode(c);
  EXPECT_EQ(reg.ListNodes().size(), 3u);
  EXPECT_EQ(reg.ListNodes("fog").size(), 1u);
  EXPECT_EQ(reg.ListNodes("fog")[0].node_id, "f0");
  reg.RemoveNode("f0");
  EXPECT_TRUE(reg.ListNodes("fog").empty());
}

TEST(Registry, WorkloadRecords) {
  Store store;
  ResourceRegistry reg(store);
  reg.PutWorkload("wl-1", util::Json::MakeObject().Set("node", "e0"));
  auto wl = reg.GetWorkload("wl-1");
  ASSERT_TRUE(wl.ok());
  EXPECT_EQ(wl->at("node").as_string(), "e0");
  reg.PutWorkload("wl-2", util::Json::MakeObject().Set("node", "f0"));
  auto all = reg.ListWorkloads();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "wl-1");
}

TEST(Registry, TelemetryRingBuffer) {
  Store store;
  ResourceRegistry reg(store);
  for (int i = 0; i < 300; ++i) {
    reg.AppendTelemetry("e0", "latency_ms", {i, static_cast<double>(i)}, 256);
  }
  auto series = reg.GetTelemetry("e0", "latency_ms");
  ASSERT_EQ(series.size(), 256u);
  EXPECT_EQ(series.front().at_ns, 44);  // oldest surviving sample
  EXPECT_EQ(series.back().at_ns, 299);
}

TEST(Registry, RecentMeanUsesWindow) {
  Store store;
  ResourceRegistry reg(store);
  for (int i = 0; i < 10; ++i) {
    reg.AppendTelemetry("e0", "util", {i, i < 5 ? 0.0 : 1.0});
  }
  EXPECT_DOUBLE_EQ(reg.RecentMean("e0", "util", 5), 1.0);
  EXPECT_DOUBLE_EQ(reg.RecentMean("e0", "util", 10), 0.5);
  EXPECT_DOUBLE_EQ(reg.RecentMean("e0", "missing"), 0.0);
}

}  // namespace
}  // namespace myrtus::kb
