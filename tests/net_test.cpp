// Topology routing, transport timing/loss/queueing, network slicing, RPC
// fabric, and the MQTT-style broker.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "continuum/infrastructure.hpp"
#include "net/pubsub.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace myrtus::net {
namespace {

using sim::SimTime;

Topology LineTopology() {
  // edge -- fog -- cloud, 1ms and 10ms links, 1 Gb/s.
  Topology t;
  t.AddBidirectional("edge", "fog", SimTime::Millis(1), 1e9);
  t.AddBidirectional("fog", "cloud", SimTime::Millis(10), 1e9);
  return t;
}

TEST(Topology, RouteAlongLine) {
  Topology t = LineTopology();
  auto route = t.FindRoute("edge", "cloud");
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->link_indices.size(), 2u);
  EXPECT_EQ(route->propagation, SimTime::Millis(11));
}

TEST(Topology, LoopbackIsEmptyRoute) {
  Topology t = LineTopology();
  auto route = t.FindRoute("fog", "fog");
  ASSERT_TRUE(route.ok());
  EXPECT_TRUE(route->link_indices.empty());
  EXPECT_EQ(route->propagation, SimTime::Zero());
}

TEST(Topology, UnknownHostIsNotFound) {
  Topology t = LineTopology();
  EXPECT_FALSE(t.FindRoute("edge", "mars").ok());
}

TEST(Topology, PicksLowerLatencyPath) {
  Topology t;
  t.AddBidirectional("a", "b", SimTime::Millis(10), 1e9);
  t.AddBidirectional("a", "c", SimTime::Millis(1), 1e9);
  t.AddBidirectional("c", "b", SimTime::Millis(2), 1e9);
  auto route = t.FindRoute("a", "b");
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->link_indices.size(), 2u);  // via c: 3ms < 10ms direct
  EXPECT_EQ(route->propagation, SimTime::Millis(3));
}

TEST(Topology, LinkFailureReroutes) {
  Topology t;
  t.AddBidirectional("a", "b", SimTime::Millis(10), 1e9);
  t.AddBidirectional("a", "c", SimTime::Millis(1), 1e9);
  t.AddBidirectional("c", "b", SimTime::Millis(2), 1e9);
  // Kill the a->c link; route must fall back to the direct 10ms path.
  for (std::size_t i = 0; i < t.link_count(); ++i) {
    if (t.link(i).from == "a" && t.link(i).to == "c") t.SetLinkUp(i, false);
  }
  auto route = t.FindRoute("a", "b");
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->propagation, SimTime::Millis(10));
}

TEST(Topology, DisconnectedIsNotFound) {
  Topology t;
  t.AddHost("island");
  t.AddBidirectional("a", "b", SimTime::Millis(1), 1e9);
  EXPECT_FALSE(t.FindRoute("a", "island").ok());
}

TEST(Topology, MinBandwidthAlongRoute) {
  Topology t;
  t.AddBidirectional("a", "b", SimTime::Millis(1), 1e9);
  t.AddBidirectional("b", "c", SimTime::Millis(1), 1e6);
  auto route = t.FindRoute("a", "c");
  ASSERT_TRUE(route.ok());
  EXPECT_DOUBLE_EQ(route->min_bandwidth_bps, 1e6);
}

// Eager all-pairs routing written against the public API: one Dijkstra per
// source (same heap order and tie-breaks as Topology's rows) filling a full
// first-link table, then the same first-hop walk. Topology's lazy rows must
// agree with it on every ordered pair.
class EagerRoutes {
 public:
  explicit EagerRoutes(const Topology& t) : t_(t) {
    const std::size_t n = t.host_count();
    std::vector<std::vector<std::size_t>> out(n);
    std::vector<std::size_t> to(t.link_count());
    for (std::size_t li = 0; li < t.link_count(); ++li) {
      out[Index(t.link(li).from)].push_back(li);
      to[li] = Index(t.link(li).to);
    }
    next_.assign(n, std::vector<std::int32_t>(n, -1));
    dist_.assign(n, std::vector<std::int64_t>(
                        n, std::numeric_limits<std::int64_t>::max()));
    for (std::size_t src = 0; src < n; ++src) {
      std::vector<std::int64_t>& dist = dist_[src];
      std::vector<std::int32_t>& first = next_[src];
      using QItem = std::pair<std::int64_t, std::size_t>;
      std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
      dist[src] = 0;
      pq.emplace(0, src);
      while (!pq.empty()) {
        const auto [d, u] = pq.top();
        pq.pop();
        if (d != dist[u]) continue;
        for (const std::size_t li : out[u]) {
          if (!t.IsLinkUp(li)) continue;
          const std::size_t v = to[li];
          const std::int64_t nd = d + t.link(li).latency.ns;
          if (nd < dist[v]) {
            dist[v] = nd;
            first[v] = u == src ? static_cast<std::int32_t>(li) : first[u];
            pq.emplace(nd, v);
          }
        }
      }
    }
  }

  util::StatusOr<Route> FindRoute(std::size_t from, std::size_t dst) const {
    if (from == dst) return Route{};
    Route route;
    route.min_bandwidth_bps = std::numeric_limits<double>::max();
    std::size_t cur = from;
    for (std::size_t step = 0; step <= t_.host_count() && cur != dst; ++step) {
      const std::int32_t li = next_[cur][dst];
      if (li < 0) break;
      const Link& l = t_.link(static_cast<std::size_t>(li));
      route.link_indices.push_back(static_cast<std::size_t>(li));
      route.propagation += l.latency;
      route.min_bandwidth_bps = std::min(route.min_bandwidth_bps, l.bandwidth_bps);
      cur = Index(l.to);
    }
    if (cur == dst) return route;
    return util::Status::NotFound("no route");
  }

  std::int64_t DistanceNs(std::size_t from, std::size_t dst) const {
    return dist_[from][dst];
  }

 private:
  std::size_t Index(const HostId& id) const { return *t_.HostIndex(id); }

  const Topology& t_;
  std::vector<std::vector<std::int32_t>> next_;
  std::vector<std::vector<std::int64_t>> dist_;
};

// Every ordered pair: identical route (links, propagation, bandwidth) and a
// distance row equal to the walked propagation, max() where unreachable.
void ExpectMatchesEagerRoutes(const Topology& t) {
  const EagerRoutes eager(t);
  const std::vector<HostId>& hosts = t.hosts();
  std::size_t reachable = 0;
  for (std::size_t a = 0; a < hosts.size(); ++a) {
    for (std::size_t b = 0; b < hosts.size(); ++b) {
      const auto want = eager.FindRoute(a, b);
      const auto got = t.FindRoute(hosts[a], hosts[b]);
      ASSERT_EQ(got.ok(), want.ok()) << hosts[a] << " -> " << hosts[b];
      const std::int64_t row_ns = t.DistanceRowNs(a)[b];
      if (!got.ok()) {
        EXPECT_EQ(row_ns, std::numeric_limits<std::int64_t>::max());
        EXPECT_EQ(eager.DistanceNs(a, b), row_ns);
        continue;
      }
      ++reachable;
      EXPECT_EQ(got->link_indices, want->link_indices) << hosts[a] << " -> " << hosts[b];
      EXPECT_EQ(got->propagation, want->propagation);
      EXPECT_EQ(got->min_bandwidth_bps, want->min_bandwidth_bps);
      EXPECT_EQ(row_ns, got->propagation.ns) << hosts[a] << " -> " << hosts[b];
    }
  }
  EXPECT_GT(reachable, hosts.size());
}

// Toggles every `stride`-th link down, checks, brings them back, checks.
void ExpectMatchesAcrossLinkToggles(Topology& t, std::size_t stride) {
  ExpectMatchesEagerRoutes(t);
  for (std::size_t li = 0; li < t.link_count(); li += stride) t.SetLinkUp(li, false);
  ExpectMatchesEagerRoutes(t);
  for (std::size_t li = 0; li < t.link_count(); li += stride) t.SetLinkUp(li, true);
  ExpectMatchesEagerRoutes(t);
}

TEST(Topology, LazyRowsMatchEagerRoutesOnInfrastructure) {
  sim::Engine engine;
  continuum::InfrastructureSpec spec;
  spec.edge_hmpsoc = 8;
  spec.edge_riscv = 8;
  spec.edge_multicore = 8;
  spec.gateways = 2;
  spec.fmdcs = 2;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, spec);
  Topology& t = infra.topology;
  ExpectMatchesAcrossLinkToggles(t, 3);
  // A new shortcut must reroute every pair it shortens.
  t.AddBidirectional("edge-0", "cloud-0", SimTime::Millis(1), 5e6);
  ExpectMatchesEagerRoutes(t);
}

TEST(Topology, LazyRowsMatchEagerRoutesOnRandomGraphWithTies) {
  util::Rng rng(15, "route-differential");
  for (int graph = 0; graph < 6; ++graph) {
    Topology t;
    const std::size_t n = 12 + rng.NextBounded(20);
    for (std::size_t i = 0; i < n; ++i) t.AddHost("h" + std::to_string(i));
    t.AddHost("island");
    // Latencies from {1, 2, 3} ms make equal-length paths common; some
    // links are one-way.
    for (std::size_t e = 0; e < 3 * n; ++e) {
      const std::string a = "h" + std::to_string(rng.NextBounded(n));
      const std::string b = "h" + std::to_string(rng.NextBounded(n));
      if (a == b) continue;
      const SimTime latency = SimTime::Millis(1 + static_cast<std::int64_t>(rng.NextBounded(3)));
      const double bandwidth = 1e6 * static_cast<double>(1 + rng.NextBounded(4));
      if (rng.NextBool(0.3)) {
        t.AddLink(Link{a, b, latency, bandwidth, 0.0, {}});
      } else {
        t.AddBidirectional(a, b, latency, bandwidth);
      }
    }
    ExpectMatchesAcrossLinkToggles(t, 2 + rng.NextBounded(3));
    t.AddLink(Link{"h0", "island", SimTime::Millis(1), 1e6, 0.0, {}});
    ExpectMatchesEagerRoutes(t);
  }
}

TEST(Topology, DistanceRowIsZeroAtSourceAndMaxWhenUnreachable) {
  Topology t = LineTopology();
  t.AddHost("island");
  const std::size_t edge = *t.HostIndex("edge");
  const std::vector<std::int64_t>& row = t.DistanceRowNs(edge);
  ASSERT_EQ(row.size(), t.host_count());
  EXPECT_EQ(row[edge], 0);
  EXPECT_EQ(row[*t.HostIndex("cloud")], SimTime::Millis(11).ns);
  EXPECT_EQ(row[*t.HostIndex("island")], std::numeric_limits<std::int64_t>::max());
  EXPECT_FALSE(t.HostIndex("mars").has_value());
}

TEST(Network, DeliversWithExpectedLatency) {
  sim::Engine engine;
  Network net(engine, LineTopology(), 1);
  SimTime arrival{-1};
  net.Attach("cloud", [&](const Message& m) {
    EXPECT_EQ(m.kind, "telemetry");
    arrival = engine.Now();
  });
  Message msg;
  msg.from = "edge";
  msg.to = "cloud";
  msg.kind = "telemetry";
  msg.protocol = Protocol::kCoap;
  msg.body_bytes = 1000;
  ASSERT_TRUE(net.Send(std::move(msg)).ok());
  engine.Run();
  // 11ms propagation + ~2 * (1012B * 8 / 1e9)s serialization ≈ 11.016ms.
  EXPECT_GT(arrival, SimTime::Millis(11));
  EXPECT_LT(arrival, SimTime::Millis(12));
  EXPECT_EQ(net.messages_delivered(), 1u);
}

TEST(Network, LoopbackDelivery) {
  sim::Engine engine;
  Network net(engine, LineTopology(), 1);
  int got = 0;
  net.Attach("edge", [&](const Message&) { ++got; });
  Message msg;
  msg.from = "edge";
  msg.to = "edge";
  msg.kind = "self";
  ASSERT_TRUE(net.Send(std::move(msg)).ok());
  engine.Run();
  EXPECT_EQ(got, 1);
}

TEST(Network, NoRouteFailsFast) {
  sim::Engine engine;
  Topology t;
  t.AddHost("a");
  t.AddHost("b");
  Network net(engine, std::move(t), 1);
  Message msg;
  msg.from = "a";
  msg.to = "b";
  EXPECT_FALSE(net.Send(std::move(msg)).ok());
}

TEST(Network, LossyLinkDropsApproximatelyAtRate) {
  sim::Engine engine;
  Topology t;
  t.AddLink(Link{"a", "b", SimTime::Micros(10), 1e9, 0.3, {}});
  Network net(engine, std::move(t), 42);
  int delivered = 0;
  net.Attach("b", [&](const Message&) { ++delivered; });
  for (int i = 0; i < 2000; ++i) {
    Message m;
    m.from = "a";
    m.to = "b";
    m.kind = "probe";
    m.body_bytes = 10;
    ASSERT_TRUE(net.Send(std::move(m)).ok());
  }
  engine.Run();
  EXPECT_NEAR(static_cast<double>(delivered) / 2000.0, 0.7, 0.04);
  EXPECT_EQ(net.messages_dropped() + net.messages_delivered(), 2000u);
}

TEST(Network, QueueingDelaysBackToBackMessages) {
  sim::Engine engine;
  Topology t;
  // Slow 1 Mb/s link: 1250-byte frame takes 10ms to serialize.
  t.AddLink(Link{"a", "b", SimTime::Zero(), 1e6, 0.0, {}});
  Network net(engine, std::move(t), 7);
  std::vector<SimTime> arrivals;
  net.Attach("b", [&](const Message&) { arrivals.push_back(engine.Now()); });
  for (int i = 0; i < 3; ++i) {
    Message m;
    m.from = "a";
    m.to = "b";
    m.kind = "bulk";
    m.protocol = Protocol::kMqtt;
    m.body_bytes = 1242;  // + 8B MQTT = 1250B = 10ms at 1 Mb/s
    ASSERT_TRUE(net.Send(std::move(m)).ok());
  }
  engine.Run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], SimTime::Millis(10));
  EXPECT_EQ(arrivals[1], SimTime::Millis(20));  // queued behind the first
  EXPECT_EQ(arrivals[2], SimTime::Millis(30));
}

TEST(Network, RpcRoundtrip) {
  sim::Engine engine;
  Network net(engine, LineTopology(), 1);
  net.RegisterRpc("cloud", "echo",
                  [](const HostId& caller, const util::Json& req)
                      -> util::StatusOr<util::Json> {
                    return util::Json::MakeObject()
                        .Set("caller", caller)
                        .Set("echo", req);
                  });
  bool replied = false;
  net.Call("edge", "cloud", "echo", util::Json(42),
           [&](util::StatusOr<util::Json> reply) {
             ASSERT_TRUE(reply.ok());
             EXPECT_EQ(reply->at("caller").as_string(), "edge");
             EXPECT_EQ(reply->at("echo").as_int(), 42);
             replied = true;
           });
  engine.Run();
  EXPECT_TRUE(replied);
}

TEST(Network, RpcErrorPropagates) {
  sim::Engine engine;
  Network net(engine, LineTopology(), 1);
  net.RegisterRpc("fog", "fail",
                  [](const HostId&, const util::Json&)
                      -> util::StatusOr<util::Json> {
                    return util::Status::ResourceExhausted("no capacity");
                  });
  bool replied = false;
  net.Call("edge", "fog", "fail", {}, [&](util::StatusOr<util::Json> reply) {
    EXPECT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), util::StatusCode::kResourceExhausted);
    EXPECT_EQ(reply.status().message(), "no capacity");
    replied = true;
  });
  engine.Run();
  EXPECT_TRUE(replied);
}

TEST(Network, RpcUnknownMethodIsUnimplemented) {
  sim::Engine engine;
  Network net(engine, LineTopology(), 1);
  bool replied = false;
  net.Call("edge", "fog", "nope", {}, [&](util::StatusOr<util::Json> reply) {
    EXPECT_EQ(reply.status().code(), util::StatusCode::kUnimplemented);
    replied = true;
  });
  engine.Run();
  EXPECT_TRUE(replied);
}

TEST(Network, RpcTimesOutOnLostReply) {
  sim::Engine engine;
  Topology t;
  // Fully lossy link: requests never arrive.
  t.AddLink(Link{"a", "b", SimTime::Millis(1), 1e9, 1.0, {}});
  t.AddLink(Link{"b", "a", SimTime::Millis(1), 1e9, 1.0, {}});
  Network net(engine, std::move(t), 3);
  net.RegisterRpc("b", "m", [](const HostId&, const util::Json&)
                                -> util::StatusOr<util::Json> {
    return util::Json(1);
  });
  bool timed_out = false;
  net.Call("a", "b", "m", {}, [&](util::StatusOr<util::Json> reply) {
    EXPECT_EQ(reply.status().code(), util::StatusCode::kDeadlineExceeded);
    timed_out = true;
  }, SimTime::Millis(100));
  engine.Run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(engine.Now(), SimTime::Millis(100));
}

// Network slicing: priority classes at a link queue.
TEST(NetworkSlicing, ControlTrafficPreemptsBulkQueue) {
  sim::Engine engine;
  Topology t;
  // 1 Mb/s link: a 1250-byte frame takes 10ms to serialize.
  t.AddLink(Link{"a", "b", SimTime::Zero(), 1e6, 0.0, {}});
  Network net(engine, std::move(t), 1);
  std::vector<std::string> arrivals;
  net.Attach("b", [&](const Message& m) { arrivals.push_back(m.kind); });

  // Flood five bulk frames, then one control frame while the first bulk
  // frame is still on the wire.
  for (int i = 0; i < 5; ++i) {
    Message bulk;
    bulk.from = "a";
    bulk.to = "b";
    bulk.kind = "bulk-" + std::to_string(i);
    bulk.protocol = Protocol::kMqtt;
    bulk.body_bytes = 1242;
    bulk.priority = 0;
    ASSERT_TRUE(net.Send(std::move(bulk)).ok());
  }
  Message control;
  control.from = "a";
  control.to = "b";
  control.kind = "control";
  control.protocol = Protocol::kMqtt;
  control.body_bytes = 42;
  control.priority = 2;
  ASSERT_TRUE(net.Send(std::move(control)).ok());

  engine.Run();
  ASSERT_EQ(arrivals.size(), 6u);
  // bulk-0 was already transmitting; control jumps the remaining queue.
  EXPECT_EQ(arrivals[0], "bulk-0");
  EXPECT_EQ(arrivals[1], "control");
  EXPECT_EQ(arrivals[2], "bulk-1");
  EXPECT_EQ(arrivals[5], "bulk-4");
}

TEST(NetworkSlicing, EqualPriorityKeepsFifo) {
  sim::Engine engine;
  Topology t;
  t.AddLink(Link{"a", "b", SimTime::Zero(), 1e6, 0.0, {}});
  Network net(engine, std::move(t), 1);
  std::vector<std::string> arrivals;
  net.Attach("b", [&](const Message& m) { arrivals.push_back(m.kind); });
  for (int i = 0; i < 4; ++i) {
    Message m;
    m.from = "a";
    m.to = "b";
    m.kind = std::to_string(i);
    m.body_bytes = 500;
    m.priority = 1;
    ASSERT_TRUE(net.Send(std::move(m)).ok());
  }
  engine.Run();
  EXPECT_EQ(arrivals, (std::vector<std::string>{"0", "1", "2", "3"}));
}

TEST(TopicMatch, ExactAndWildcards) {
  EXPECT_TRUE(TopicMatches("a/b", "a/b"));
  EXPECT_FALSE(TopicMatches("a/b", "a/c"));
  EXPECT_TRUE(TopicMatches("a/+", "a/b"));
  EXPECT_FALSE(TopicMatches("a/+", "a/b/c"));
  EXPECT_TRUE(TopicMatches("a/#", "a/b/c"));
  EXPECT_TRUE(TopicMatches("#", "anything/at/all"));
  EXPECT_FALSE(TopicMatches("a/b", "a"));
  EXPECT_FALSE(TopicMatches("a", "a/b"));
  EXPECT_TRUE(TopicMatches("+/b/#", "x/b/y/z"));
}

// Regression: `#` used to be honoured anywhere in the filter, so malformed
// filters like "a/#/b" silently matched everything under "a". Per MQTT, `#`
// is only valid as the final level; elsewhere it must match nothing.
TEST(TopicMatch, TableDrivenWildcardSemantics) {
  struct Case {
    const char* filter;
    const char* topic;
    bool match;
  };
  const Case kCases[] = {
      // Multi-level wildcard also matches the parent level itself.
      {"a/#", "a", true},
      {"a/#", "a/b", true},
      {"a/#", "a/b/c/d", true},
      {"#", "a", true},
      {"sport/tennis/#", "sport/tennis/player1/ranking", true},
      // Non-trailing `#` is malformed and must never match.
      {"a/#/b", "a/x/b", false},
      {"a/#/b", "a/b", false},
      {"a/#/b", "a/anything/at/all", false},
      {"#/b", "a/b", false},
      {"#/#", "a/b", false},
      // `+` is exactly one level, combinable with a trailing `#`.
      {"+", "a", true},
      {"+", "a/b", false},
      {"a/+/c", "a/b/c", true},
      {"a/+/c", "a/c", false},
      {"+/#", "a/b/c", true},
      // Exact matches are unchanged.
      {"a/b/c", "a/b/c", true},
      {"a/b/c", "a/b", false},
  };
  for (const Case& c : kCases) {
    EXPECT_EQ(TopicMatches(c.filter, c.topic), c.match)
        << "filter='" << c.filter << "' topic='" << c.topic << "'";
  }
}

TEST(Broker, PublishFansOutToMatchingSubscribers) {
  sim::Engine engine;
  Topology t;
  t.AddBidirectional("sensor", "gateway", SimTime::Millis(1), 1e8);
  t.AddBidirectional("gateway", "analytics", SimTime::Millis(2), 1e8);
  t.AddBidirectional("gateway", "dashboard", SimTime::Millis(5), 1e8);
  Network net(engine, std::move(t), 11);
  Broker broker(net, "gateway");

  std::vector<std::string> analytics_topics;
  int dashboard_events = 0;
  broker.Subscribe("analytics", "telemetry/#",
                   [&](const std::string& topic, const util::Json&) {
                     analytics_topics.push_back(topic);
                   });
  broker.Subscribe("dashboard", "telemetry/temp/+",
                   [&](const std::string&, const util::Json&) {
                     ++dashboard_events;
                   });

  broker.Publish("sensor", "telemetry/temp/room1",
                 util::Json::MakeObject().Set("c", 21.5));
  broker.Publish("sensor", "telemetry/humidity/room1",
                 util::Json::MakeObject().Set("rh", 0.4));
  engine.Run();

  EXPECT_EQ(broker.publishes(), 2u);
  ASSERT_EQ(analytics_topics.size(), 2u);
  EXPECT_EQ(dashboard_events, 1);
  EXPECT_EQ(broker.deliveries(), 3u);
}

TEST(Broker, UnsubscribeStopsDelivery) {
  sim::Engine engine;
  Topology t;
  t.AddBidirectional("pub", "gw", SimTime::Millis(1), 1e8);
  t.AddBidirectional("gw", "sub", SimTime::Millis(1), 1e8);
  Network net(engine, std::move(t), 11);
  Broker broker(net, "gw");
  int events = 0;
  broker.Subscribe("sub", "t/#", [&](const std::string&, const util::Json&) {
    ++events;
  });
  broker.Publish("pub", "t/1", util::Json(1));
  engine.Run();
  broker.Unsubscribe("sub", "t/#");
  broker.Publish("pub", "t/2", util::Json(2));
  engine.Run();
  EXPECT_EQ(events, 1);
}

TEST(Network, DestructionUninstallsTracerClock) {
  // Regression for the capture-lifetime fix: the constructor hands the global
  // tracer a closure over &engine_; the destructor must take it back, or the
  // tracer dereferences a destroyed network on the next NowNs().
  telemetry::ResetGlobal();
  {
    sim::Engine engine;
    Network net(engine, LineTopology(), 1);
    engine.RunUntil(SimTime::Millis(5));
    EXPECT_EQ(telemetry::Global().tracer.NowNs(), SimTime::Millis(5).ns);
  }
  EXPECT_EQ(telemetry::Global().tracer.NowNs(), 0)
      << "destroyed network left its clock installed";
  telemetry::ResetGlobal();
}

TEST(Network, StaleClockTokenDoesNotClobberNewerInstall) {
  // Last-constructed wins must survive out-of-order destruction: the first
  // network's (stale) token is a no-op against the second's installation.
  telemetry::ResetGlobal();
  sim::Engine engine_a;
  sim::Engine engine_b;
  auto net_a = std::make_unique<Network>(engine_a, LineTopology(), 1);
  Network net_b(engine_b, LineTopology(), 2);
  engine_b.RunUntil(SimTime::Millis(3));
  net_a.reset();
  EXPECT_EQ(telemetry::Global().tracer.NowNs(), SimTime::Millis(3).ns)
      << "stale uninstall token clobbered the newer clock";
  telemetry::ResetGlobal();
}

}  // namespace
}  // namespace myrtus::net
