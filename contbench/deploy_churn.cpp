// deploy-churn: the control plane's admission path. On a fleet of about
// 1.1k nodes, distinct TOSCA applications arrive open-loop in simulated time
// at the three layer agents of a MirtoEngine: new deploys, in-place updates
// (same application redeployed) and undeploys of live applications, in
// equal deploy/undeploy shares so the live population stays steady. Each
// arrival crosses the network to its agent's host, where the benchmark's
// admission handler runs the body of the `mirto.deploy` / `mirto.undeploy`
// handlers as public calls: AuthModule::Authenticate, CsarPackage::Unpack,
// then MirtoAgent::Deploy or MirtoAgent::Undeploy. Partway through the
// window edge nodes hosting live pods fail; the agents' reconcile re-places
// the evicted pods.
#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "continuum/infrastructure.hpp"
#include "mirto/engine.hpp"
#include "net/transport.hpp"
#include "probe.hpp"
#include "tosca/csar.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace contbench {
namespace {

namespace tosca = ::myrtus::tosca;

constexpr char kSecret[] = "deploy-churn-secret";
constexpr int kTenants = 8;
constexpr int kInitialApps = 120;
constexpr double kRateHz = 160.0;
constexpr int kFaults = 10;
const sim::SimTime kWarmup = sim::SimTime::Millis(600);
const sim::SimTime kWindow = sim::SimTime::Seconds(13);
const sim::SimTime kDrain = sim::SimTime::Seconds(1);
const sim::SimTime kTick = sim::SimTime::Millis(10);
const sim::SimTime kFaultFirst = sim::SimTime::Millis(1265);
const sim::SimTime kFaultSpacing = sim::SimTime::Millis(1250);
const sim::SimTime kFaultDuration = sim::SimTime::Millis(1000);
const sim::SimTime kRecoveryPoll = sim::SimTime::Millis(1);
constexpr std::array<continuum::Layer, 3> kLayers = {
    continuum::Layer::kEdge, continuum::Layer::kFog, continuum::Layer::kCloud};

continuum::InfrastructureSpec Spec() {
  continuum::InfrastructureSpec spec;
  spec.edge_hmpsoc = 8;
  spec.edge_riscv = 8;
  spec.edge_multicore = 960;
  spec.gateways = 90;
  spec.fmdcs = 20;
  spec.fmdc_servers = 2;
  spec.cloud_servers = 4;
  return spec;
}

enum class Kind : std::uint8_t { kDeploy, kUpdate, kUndeploy };

struct Request {
  std::int64_t due_ns = 0;
  Kind kind = Kind::kDeploy;
  int layer = 0;  // index into kLayers
  std::string app;
  util::Json body;  // the admission request as sent over the network
  std::size_t csar_bytes = 0;
};

struct Inputs {
  std::uint64_t seed = 0;
  std::vector<tosca::CsarPackage> initial;  // deployed during set-up
  std::vector<int> initial_layer;
  std::vector<Request> requests;
  std::vector<std::int64_t> faults;  // failure times; the node is chosen live
};

/// A TOSCA application the agent of `layer` can place: security policies
/// its layer's nodes satisfy, and accelerated kernels only at the edge
/// (the only layer with FPGA-equipped nodes).
tosca::CsarPackage MakeApp(const std::string& app, int layer, bool accelerated,
                           util::Rng& rng) {
  tosca::ServiceTemplate tpl;
  tpl.tosca_version = "tosca_2_0";
  tpl.description = app;
  const int templates = 2 + static_cast<int>(rng.NextBounded(4));
  static constexpr std::array<int, 4> kMemMb = {64, 128, 256, 384};
  std::string previous;
  for (int k = 0; k < templates; ++k) {
    tosca::NodeTemplate nt;
    nt.name = app + "-n" + std::to_string(k);
    nt.type = std::string(accelerated && k == 0 ? tosca::kTypeAccelerator
                                                : tosca::kTypeWorkload);
    // An accelerated kernel holds its bitstream and frame buffers: it takes
    // more than half of an accelerator node's 2 GB, so each node of the
    // FPGA/CCU pool fits one.
    const bool kernel = accelerated && k == 0;
    const auto mem_mb =
        kernel ? 1152 + 96 * static_cast<int>(rng.NextBounded(5))
               : kMemMb[rng.NextBounded(kMemMb.size())];
    nt.properties =
        util::Json::MakeObject()
            .Set("cpu", 0.1 + 0.05 * static_cast<double>(rng.NextBounded(11)))
            .Set("memory_mb", mem_mb);
    if (!previous.empty()) nt.requirements.push_back({"connects_to", previous});
    previous = nt.name;
    tpl.node_templates[nt.name] = nt;
  }
  // Mixed security policies: edge nodes are certified Low, gateways Medium,
  // FMDCs and the cloud High.
  static constexpr std::array<const char*, 3> kLevels = {"low", "medium", "high"};
  const std::size_t level = layer == 0 ? 0 : rng.NextBounded(kLevels.size());
  if (rng.NextBool(0.5)) {
    tosca::Policy policy;
    policy.name = "security";
    policy.type = std::string(tosca::kPolicySecurity);
    policy.targets = {app + "-n0"};
    policy.properties = util::Json::MakeObject().Set("level", kLevels[level]);
    tpl.policies.push_back(policy);
  }
  return tosca::CsarPackage::Create(tpl, app + ".yaml");
}

Inputs Generate(std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  util::Rng rng(seed, "deploy-churn");
  mirto::AuthModule issuer(util::BytesOf(kSecret));
  std::vector<std::string> tokens;
  for (int t = 0; t < kTenants; ++t) {
    tokens.push_back(issuer.IssueToken("tenant-" + std::to_string(t)));
  }
  // The mix is fixed and the seed fills it in: applications cycle through
  // 12 edge, 5 fog and 3 cloud slots (every 5th slot an accelerated edge
  // application), requests through 3 new deploys, 2 updates and 3 undeploys
  // in every 8. Which live application an update or undeploy hits, template
  // sizes, policies and arrival times come from the seed.
  struct AppSlot {
    std::string name;
    int layer = 0;
    bool accelerated = false;
  };
  int next_app = 0;
  const auto new_app = [&next_app] {
    const int id = next_app++;
    AppSlot slot;
    slot.name = "t" + std::to_string(id % kTenants) + "-app" + std::to_string(id);
    const int cycle = id % 20;
    slot.layer = cycle < 12 ? 0 : (cycle < 17 ? 1 : 2);
    slot.accelerated = slot.layer == 0 && cycle % 5 == 0;
    return slot;
  };
  // Live population the churn draws updates and undeploys from. Accelerated
  // applications are long-lived (bitstream deployments are not churned): the
  // initial population fills the accelerator pool, so every new accelerated
  // application is refused for capacity, a real refusal of a placeable
  // application.
  std::vector<AppSlot> live;
  for (int i = 0; i < kInitialApps; ++i) {
    const AppSlot app = new_app();
    in.initial.push_back(MakeApp(app.name, app.layer, app.accelerated, rng));
    in.initial_layer.push_back(app.layer);
    if (!app.accelerated) live.push_back(app);
  }
  static constexpr std::array<Kind, 8> kKinds = {
      Kind::kDeploy, Kind::kUpdate,   Kind::kUndeploy, Kind::kDeploy,
      Kind::kUpdate, Kind::kUndeploy, Kind::kDeploy,   Kind::kUndeploy};
  double t_s = kWarmup.ToSecondsF();
  const double end_s = (kWarmup + kWindow).ToSecondsF();
  for (std::size_t i = 0;; ++i) {
    t_s += rng.NextExponential(kRateHz);
    if (t_s >= end_s) break;
    Request r;
    r.due_ns = sim::SimTime::FromSeconds(t_s).ns;
    r.kind = live.empty() ? Kind::kDeploy : kKinds[i % kKinds.size()];
    const std::string& token = tokens[rng.NextBounded(tokens.size())];
    AppSlot app;
    if (r.kind == Kind::kDeploy) {
      app = new_app();
      if (!app.accelerated) live.push_back(app);
    } else {
      const std::size_t victim = rng.NextBounded(live.size());
      app = live[victim];
      if (r.kind == Kind::kUndeploy) {
        live[victim] = live.back();
        live.pop_back();
      }
    }
    r.app = app.name;
    r.layer = app.layer;
    if (r.kind == Kind::kUndeploy) {
      r.body = util::Json::MakeObject()
                   .Set("op", "undeploy")
                   .Set("token", token)
                   .Set("app", r.app);
    } else {
      const std::string packed =
          MakeApp(app.name, app.layer, app.accelerated, rng).Pack();
      r.csar_bytes = packed.size();
      r.body = util::Json::MakeObject()
                   .Set("op", "deploy")
                   .Set("token", token)
                   .Set("csar", packed);
    }
    in.requests.push_back(std::move(r));
  }
  // Fault instants: fixed slots midway between two MAPE iterations of the
  // agents (250 ms period, started at t=0), each shifted by up to 20 ms from
  // the seed. Recovery then times detection and re-placement, not where a
  // fault happens to fall in the MAPE period.
  for (int k = 0; k < kFaults; ++k) {
    in.faults.push_back((kWarmup + kFaultFirst + kFaultSpacing * k).ns +
                        static_cast<std::int64_t>(rng.NextBounded(20'000'000)));
  }
  return in;
}

class World {
 public:
  World(const Inputs& in, Tracer& tracer)
      : in_(in),
        tracer_(tracer),
        infra_(continuum::BuildInfrastructure(engine_, Spec())),
        network_(engine_, infra_.topology, in.seed),
        mirto_(network_, infra_, EngineConfig(in.seed)) {
    network_.topology().AddBidirectional("tenants", "gw-0",
                                         sim::SimTime::Millis(1), 1e9);
  }

  /// Starts the agents, registers the admission handlers, warms the route
  /// table and deploys the initial application population.
  bool SetUp(RoundResult& round) {
    mirto_.Start();
    for (std::size_t l = 0; l < kLayers.size(); ++l) {
      const std::string host = mirto::MirtoEngine::AgentHost(kLayers[l]);
      network_.RegisterRpc(
          host, "bench.admit",
          [this, l](const net::HostId&, const util::Json& req)
              -> util::StatusOr<util::Json> { return Admit(l, req); });
    }
    if (!network_.topology().FindRoute("tenants", "edge-0").ok()) {
      round.check_failures.push_back("no route tenants -> edge-0");
      return false;
    }
    for (std::size_t i = 0; i < in_.initial.size(); ++i) {
      const auto l = static_cast<std::size_t>(in_.initial_layer[i]);
      if (mirto_.agent(kLayers[l]).Deploy(in_.initial[i]).ok()) {
        auto entry = in_.initial[i].EntryPath();
        if (entry.ok()) live_.insert(entry->substr(0, entry->size() - 5));
      }
    }
    engine_.RunUntil(kWarmup);
    return true;
  }

  void RunWindow(RoundResult& round) {
    ProbeTargets targets;
    targets.engine = &engine_;
    targets.network = &network_;
    targets.infra = &infra_;
    for (const continuum::Layer layer : kLayers) {
      targets.clusters.push_back(&mirto_.cluster(layer));
      targets.agents.push_back(&mirto_.agent(layer));
      targets.agent_stores.push_back(&mirto_.kb(layer));
    }
    Probe probe(targets);
    probe.Start();
    round_ = &round;

    outcomes_.assign(in_.requests.size(), Outcome{});
    next_request_ = 0;
    ScheduleNextRequest();
    for (const std::int64_t at_ns : in_.faults) ScheduleFault(at_ns);

    const sim::SimTime end = kWarmup + kWindow + kDrain;
    RunTicks(engine_, end, kTick, tracer_, round, [&] {
      if (tracer_.enabled()) probe.SampleTick();
    });
    round_ = nullptr;

    Account(round);
    CheckPlacements(clusters(), round);
    probe.Finish(round, tracer_);
    double csar_bytes = 0.0;
    double deploys = 0.0;
    for (const Request& r : in_.requests) {
      if (r.kind == Kind::kUndeploy) continue;
      csar_bytes += static_cast<double>(r.csar_bytes);
      deploys += 1.0;
    }
    round.layer["tosca.csar_bytes"] = deploys > 0 ? csar_bytes / deploys : 0.0;
  }

 private:
  [[nodiscard]] std::vector<sched::Cluster*> clusters() {
    std::vector<sched::Cluster*> out;
    for (const continuum::Layer layer : kLayers) {
      out.push_back(&mirto_.cluster(layer));
    }
    return out;
  }

  struct Outcome {
    std::int64_t done_ns = -1;  // -1 = no answer
    util::StatusCode code = util::StatusCode::kOk;
  };

  static mirto::EngineConfig EngineConfig(std::uint64_t seed) {
    mirto::EngineConfig config;
    config.seed = seed;
    config.auth_secret = kSecret;
    return config;
  }

  /// The admission handler: the body of the agent's `mirto.deploy` /
  /// `mirto.undeploy` handlers, issued as public calls and timed one by one.
  util::StatusOr<util::Json> Admit(std::size_t layer, const util::Json& req) {
    const HostClock::time_point t0 = HostClock::now();
    ScopedSpan admit(tracer_, SpanName::kAdmit);
    mirto::MirtoAgent& agent = mirto_.agent(kLayers[layer]);
    util::Status status = util::Status::Ok();
    {
      util::StatusOr<std::string> principal = util::Status::Ok();
      {
        ScopedSpan span(tracer_, SpanName::kAuth);
        principal = mirto_.auth().Authenticate(req.at("token").as_string());
      }
      if (!principal.ok()) {
        status = principal.status();
      } else if (req.at("op").as_string() == "undeploy") {
        ScopedSpan span(tracer_, SpanName::kUndeploy);
        status = agent.Undeploy(req.at("app").as_string());
      } else {
        util::StatusOr<tosca::CsarPackage> package = util::Status::Ok();
        {
          ScopedSpan span(tracer_, SpanName::kUnpack);
          package = tosca::CsarPackage::Unpack(req.at("csar").as_string());
        }
        if (!package.ok()) {
          status = package.status();
        } else {
          ScopedSpan span(tracer_, SpanName::kDeploy);
          status = agent.Deploy(*package);
        }
      }
    }
    if (round_ != nullptr) {
      round_->RecordOp(HostSecondsSince(t0) * 1e3);
    }
    if (!status.ok()) return status;
    return util::Json::MakeObject().Set("status", "ok");
  }

  void ScheduleNextRequest() {
    if (next_request_ >= in_.requests.size()) return;
    const std::size_t i = next_request_++;
    engine_.ScheduleAt(sim::SimTime::Nanos(in_.requests[i].due_ns), [this, i] {
      Send(i);
      ScheduleNextRequest();
    });
  }

  void Send(std::size_t i) {
    const Request& r = in_.requests[i];
    ScopedSpan span(tracer_, SpanName::kNetCall, i + 1);
    network_.Call("tenants",
                  mirto::MirtoEngine::AgentHost(kLayers[static_cast<std::size_t>(r.layer)]),
                  "bench.admit", r.body,
                  [this, i](util::StatusOr<util::Json> reply) {
                    Outcome& o = outcomes_[i];
                    o.done_ns = engine_.Now().ns;
                    o.code = reply.status().code();
                  });
  }

  /// Fails the first general-purpose edge node (in cluster order) that hosts
  /// pods, and polls until the edge cluster has re-placed every evicted pod.
  /// Accelerator nodes are spared: the saturated FPGA/CCU pool could not
  /// take their kernels back, so no recovery would exist to time.
  void ScheduleFault(std::int64_t at_ns) {
    engine_.ScheduleAt(sim::SimTime::Nanos(at_ns), [this] {
      sched::Cluster& edge = mirto_.cluster(continuum::Layer::kEdge);
      continuum::ComputeNode* victim = nullptr;
      for (sched::NodeState* ns : edge.NodeStates()) {
        if (ns->node->up() && !ns->HasAccelerator() &&
            !edge.PodsOnNode(ns->node->id()).empty()) {
          victim = ns->node;
          break;
        }
      }
      if (victim == nullptr) return;
      std::vector<std::string> evicted;
      for (const sched::PodView& pod : edge.PodsOnNode(victim->id())) {
        evicted.push_back(pod.name());
      }
      victim->SetUp(false);
      const std::int64_t failed_at = engine_.Now().ns;
      engine_.ScheduleAfter(kFaultDuration, [victim] { victim->SetUp(true); });
      auto poll = std::make_shared<sim::EventHandle>();
      *poll = engine_.SchedulePeriodic(kRecoveryPoll, [this, evicted, failed_at,
                                                       poll] {
        // Recovered once every pod the failed node hosted runs on an up node
        // again (or was undeployed meanwhile).
        sched::Cluster& cluster = mirto_.cluster(continuum::Layer::kEdge);
        for (const std::string& name : evicted) {
          const sched::PodView pod = cluster.FindPod(name);
          if (!pod) continue;
          if (!pod.bound()) return;
          const continuum::ComputeNode* node = infra_.FindNode(pod.node_id());
          if (node == nullptr || !node->up()) return;
        }
        recovery_ms_.push_back(static_cast<double>(engine_.Now().ns - failed_at) *
                               1e-6);
        engine_.Cancel(*poll);
      });
    });
  }

  void Account(RoundResult& round) {
    Digest digest;
    for (std::size_t i = 0; i < in_.requests.size(); ++i) {
      const Request& r = in_.requests[i];
      const Outcome& o = outcomes_[i];
      ++round.attempted;
      digest.Add(o.done_ns);
      digest.Add(static_cast<std::uint64_t>(o.code));
      if (o.done_ns < 0) {
        ++round.failed;
        ++round.deadline_missed;
        continue;
      }
      const bool ok = o.code == util::StatusCode::kOk;
      // The benchmark's own view of the live population: an update drops the
      // old incarnation before placing the new one, so a refused update
      // leaves the application undeployed.
      if (r.kind == Kind::kUndeploy) {
        if (ok) live_.erase(r.app);
      } else if (ok) {
        live_.insert(r.app);
      } else {
        live_.erase(r.app);
      }
      if (!ok) {
        const bool refusal = o.code == util::StatusCode::kResourceExhausted ||
                             o.code == util::StatusCode::kNotFound ||
                             o.code == util::StatusCode::kAlreadyExists;
        ++(refusal ? round.refused : round.failed);
        ++round.deadline_missed;
        continue;
      }
      ++round.completed;
      round.sim_latency_ms.push_back(static_cast<double>(o.done_ns - r.due_ns) * 1e-6);
    }
    // The agents must hold exactly the applications the replies promised.
    std::set<std::string> deployed;
    for (const continuum::Layer layer : kLayers) {
      for (const std::string& app : mirto_.agent(layer).DeployedApps()) {
        deployed.insert(app);
      }
    }
    if (deployed != live_) {
      round.check_failures.push_back(
          "agents hold " + std::to_string(deployed.size()) +
          " applications, replies promised " + std::to_string(live_.size()));
    }
    for (const std::string& app : deployed) digest.Add(app);
    for (sched::Cluster* cluster : clusters()) {
      for (sched::NodeState* ns : cluster->NodeStates()) {
        for (const sched::PodView& pod : cluster->PodsOnNode(ns->node->id())) {
          digest.Add(pod.name());
          digest.Add(ns->node->id());
        }
      }
    }
    if (recovery_ms_.size() != in_.faults.size()) {
      round.check_failures.push_back("an edge node failure was not recovered");
    }
    round.recovery_ms = recovery_ms_;
    for (const double v : recovery_ms_) digest.AddDouble(v);
    round.digest = digest.value();
  }

  const Inputs& in_;
  Tracer& tracer_;
  sim::Engine engine_;
  continuum::Infrastructure infra_;
  net::Network network_;
  mirto::MirtoEngine mirto_;
  std::set<std::string> live_;
  std::vector<Outcome> outcomes_;
  std::vector<double> recovery_ms_;
  RoundResult* round_ = nullptr;  // set while the window runs
  std::size_t next_request_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeDeployChurn(std::uint64_t seed) {
  return std::make_unique<WorldWorkload<World, Inputs>>(Generate(seed));
}

}  // namespace contbench
