// pilot-serving: the data plane. Tenant copies of both pilot scenarios run
// open-loop Poisson frame streams at their native rates across a layered
// continuum with the InfrastructureSpec link delays, while a MIRTO agent
// runs its MAPE-K loop over the whole fleet. At fixed points of the window
// the node hosting one Smart Mobility copy's `detect` stage is failed; the
// agent's reconcile moves the pod and the copy recovers.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "continuum/infrastructure.hpp"
#include "kb/store.hpp"
#include "mirto/agent.hpp"
#include "net/transport.hpp"
#include "probe.hpp"
#include "sched/controller.hpp"
#include "usecases/scenario.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace contbench {
namespace {

namespace usecases = ::myrtus::usecases;

constexpr int kMobilityCopies = 10;
constexpr int kTelerehabCopies = 10;
constexpr int kCopies = kMobilityCopies + kTelerehabCopies;
constexpr int kFaults = 60;
const sim::SimTime kWarmup = sim::SimTime::Seconds(1);
const sim::SimTime kWindow = sim::SimTime::Seconds(90);
const sim::SimTime kDrain = sim::SimTime::Seconds(2);
const sim::SimTime kTick = sim::SimTime::Millis(10);
const sim::SimTime kFaultSpacing = sim::SimTime::Millis(1450);
const sim::SimTime kFaultFirst = sim::SimTime::Millis(1630);
const sim::SimTime kFaultDuration = sim::SimTime::Millis(1000);
const sim::SimTime kRecoveryPoll = sim::SimTime::Millis(1);

continuum::InfrastructureSpec Spec() {
  continuum::InfrastructureSpec spec;
  spec.edge_hmpsoc = 24;
  spec.edge_riscv = 12;
  spec.edge_multicore = 20;
  spec.gateways = 4;
  spec.fmdcs = 6;
  spec.cloud_servers = 2;
  return spec;
}

/// Copies 0..9 are Smart Mobility, 10..19 Telerehabilitation; each sources
/// its frames from its own non-accelerated edge node.
usecases::Scenario MakeCopy(int copy) {
  usecases::Scenario s = copy < kMobilityCopies ? usecases::SmartMobilityScenario()
                                                : usecases::TelerehabScenario();
  s.name += "-" + std::to_string(copy);
  const continuum::InfrastructureSpec spec = Spec();
  s.source_host =
      "edge-" + std::to_string(spec.edge_hmpsoc +
                               copy % (spec.edge_riscv + spec.edge_multicore));
  return s;
}

struct Inputs {
  std::uint64_t seed = 0;
  // Per copy: frame due times (ns, absolute simulated time), ascending.
  std::vector<std::vector<std::int64_t>> arrivals;
  // Per fault: simulated time and the Smart Mobility copy whose detect
  // node fails.
  std::vector<std::pair<std::int64_t, int>> faults;
};

Inputs Generate(std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  in.arrivals.resize(kCopies);
  for (int c = 0; c < kCopies; ++c) {
    const double rate_hz = MakeCopy(c).arrival_rate_hz;
    util::Rng rng(seed, "pilot-arrivals", static_cast<std::uint64_t>(c));
    double t_s = kWarmup.ToSecondsF();
    const double end_s = (kWarmup + kWindow).ToSecondsF();
    while (true) {
      t_s += rng.NextExponential(rate_hz);
      if (t_s >= end_s) break;
      in.arrivals[static_cast<std::size_t>(c)].push_back(
          sim::SimTime::FromSeconds(t_s).ns);
    }
  }
  // The fault schedule is part of the scenario, not of the seed: fixed
  // times, Smart Mobility copies in turn. Seeds vary the frame arrivals.
  for (int k = 0; k < kFaults; ++k) {
    const sim::SimTime at = kWarmup + kFaultFirst + kFaultSpacing * k;
    in.faults.emplace_back(at.ns, k % kMobilityCopies);
  }
  return in;
}

/// One world: fleet, network, cluster, agent and the per-copy pipelines.
class World {
 public:
  World(const Inputs& in, Tracer& tracer)
      : in_(in),
        tracer_(tracer),
        infra_(continuum::BuildInfrastructure(engine_, Spec())),
        network_(engine_, WithAgentHost(infra_.topology), in.seed),
        cluster_(engine_, sched::Scheduler::Default()) {
    for (auto& node : infra_.nodes) cluster_.AddNode(node.get());
    mirto::AgentConfig config;
    config.host = "mirto-0";
    config.seed = in.seed;
    agent_ = std::make_unique<mirto::MirtoAgent>(
        network_, cluster_, infra_, store_,
        mirto::AuthModule(util::BytesOf("pilot-serving")), config);
  }

  /// Deploys every copy and warms the world; returns false (with a check
  /// failure recorded) when a copy cannot be deployed.
  bool SetUp(RoundResult& round) {
    agent_->Start();
    for (int c = 0; c < kCopies; ++c) {
      scenarios_.push_back(std::make_unique<usecases::Scenario>(MakeCopy(c)));
      usecases::Scenario& s = *scenarios_.back();
      if (util::Status st = usecases::DeployScenario(s, cluster_, in_.seed);
          !st.ok()) {
        round.check_failures.push_back("deploy " + s.name + ": " + st.ToString());
        return false;
      }
      pipelines_.push_back(std::make_unique<usecases::RequestPipeline>(
          network_, infra_, cluster_, s));
    }
    // Warm-up: the all-pairs route table, one frame per copy (registers the
    // relay endpoints lazily created on first use), and a second of MAPE.
    if (!network_.topology().FindRoute("edge-0", "cloud-0").ok()) {
      round.check_failures.push_back("no route edge-0 -> cloud-0");
    }
    engine_.ScheduleAt(sim::SimTime::Millis(100), [this] {
      for (auto& p : pipelines_) p->LaunchRequest();
    });
    engine_.RunUntil(kWarmup);
    for (auto& p : pipelines_) p->mutable_kpis() = usecases::ScenarioKpis{};
    return true;
  }

  void RunWindow(RoundResult& round) {
    ProbeTargets targets;
    targets.engine = &engine_;
    targets.network = &network_;
    targets.infra = &infra_;
    targets.clusters = {&cluster_};
    targets.agents = {agent_.get()};
    targets.agent_stores = {&store_};
    Probe probe(targets);
    probe.Start();

    launched_.assign(kCopies, 0);
    latencies_.assign(kCopies, {});
    faults_.assign(in_.faults.size(), FaultState{});
    for (int c = 0; c < kCopies; ++c) ScheduleNextArrival(c);
    for (std::size_t k = 0; k < in_.faults.size(); ++k) ScheduleFault(k);

    round_ = &round;
    const sim::SimTime end = kWarmup + kWindow + kDrain;
    RunTicks(engine_, end, kTick, tracer_, round, [&] {
      if (tracer_.enabled()) probe.SampleTick();
    });
    round_ = nullptr;
    Account(round);
    probe.Finish(round, tracer_);
    round.layer["usecases.completed"] = static_cast<double>(round.completed);
    round.layer["usecases.failed"] =
        static_cast<double>(round.refused + round.failed);
    round.layer["usecases.violations"] = static_cast<double>(violations_);
    round.layer["usecases.lost"] = static_cast<double>(round.failed);
    CheckPlacements({&cluster_}, round);
  }

 private:
  static net::Topology WithAgentHost(net::Topology topo) {
    topo.AddBidirectional("mirto-0", "gw-0", sim::SimTime::Micros(200), 1e9);
    return topo;
  }

  void ScheduleNextArrival(int copy) {
    const auto c = static_cast<std::size_t>(copy);
    if (launched_[c] >= in_.arrivals[c].size()) return;
    const sim::SimTime due = sim::SimTime::Nanos(in_.arrivals[c][launched_[c]]);
    engine_.ScheduleAt(due, [this, copy, c] {
      {
        const HostClock::time_point t0 = HostClock::now();
        ScopedSpan span(tracer_, SpanName::kLaunch,
                        static_cast<std::uint64_t>(copy) * 1'000'000 +
                            launched_[c] + 1);
        pipelines_[c]->LaunchRequest();
        if (round_ != nullptr) {
          round_->RecordOp(HostSecondsSince(t0) * 1e3);
        }
      }
      ++launched_[c];
      ScheduleNextArrival(copy);
    });
  }

  void ScheduleFault(std::size_t k) {
    const auto [at_ns, copy] = in_.faults[k];
    engine_.ScheduleAt(sim::SimTime::Nanos(at_ns), [this, k, copy] {
      const usecases::Scenario& s = *scenarios_[static_cast<std::size_t>(copy)];
      const sched::PodView detect = cluster_.FindPod(s.name + "/detect");
      if (!detect || !detect.bound()) return;  // nothing to fail: no sample
      continuum::ComputeNode* node = infra_.FindNode(detect.node_id());
      if (node == nullptr || !node->up()) return;
      node->SetUp(false);
      const std::int64_t failed_at = engine_.Now().ns;
      engine_.ScheduleAfter(kFaultDuration, [node] { node->SetUp(true); });
      // Poll the copy's completions every simulated millisecond until a
      // frame that was due after the fault completes.
      faults_[k].copy = copy;
      faults_[k].at_ns = failed_at;
      faults_[k].poll = engine_.SchedulePeriodic(kRecoveryPoll, [this, k] {
        FaultState& f = faults_[k];
        const std::int64_t now = engine_.Now().ns;
        for (const double latency_ms : Harvest(f.copy)) {
          const auto due_ns = now - static_cast<std::int64_t>(latency_ms * 1e6);
          if (f.recovered_ms < 0 && due_ns >= f.at_ns) {
            f.recovered_ms = static_cast<double>(now - f.at_ns) * 1e-6;
          }
        }
        if (f.recovered_ms >= 0) engine_.Cancel(f.poll);
      });
    });
  }

  /// Moves the copy's newly recorded latencies into the round's archive and
  /// returns them.
  std::vector<double> Harvest(int copy) {
    const auto c = static_cast<std::size_t>(copy);
    util::Samples fresh;
    std::swap(fresh, pipelines_[c]->mutable_kpis().latency_ms);
    std::vector<double> values = SortedSamples(fresh);
    latencies_[c].insert(latencies_[c].end(), values.begin(), values.end());
    return values;
  }

  void Account(RoundResult& round) {
    Digest digest;
    for (int c = 0; c < kCopies; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      // LINT: discard(the harvested values are archived in latencies_)
      (void)Harvest(c);
      const usecases::ScenarioKpis& k = pipelines_[ci]->kpis();
      const std::uint64_t answered = k.completed + k.failed;
      if (answered > launched_[ci]) {
        round.check_failures.push_back(scenarios_[ci]->name +
                                       ": more outcomes than frames launched");
      }
      if (latencies_[ci].size() != k.completed) {
        round.check_failures.push_back(scenarios_[ci]->name +
                                       ": latency samples != completions");
      }
      // Frames with no outcome after the drain were lost in transit (the
      // stage input arrived at a node that had failed meanwhile); the
      // client sees them as failed by timeout.
      const std::uint64_t lost = launched_[ci] - std::min(answered, launched_[ci]);
      round.attempted += launched_[ci];
      round.completed += k.completed;
      round.refused += k.failed;
      round.failed += lost;
      violations_ += k.violations;
      round.deadline_missed += k.failed + lost + k.violations;
      std::sort(latencies_[ci].begin(), latencies_[ci].end());
      round.sim_latency_ms.insert(round.sim_latency_ms.end(),
                                  latencies_[ci].begin(), latencies_[ci].end());
      digest.Add(scenarios_[ci]->name);
      digest.Add(launched_[ci]);
      digest.Add(k.completed);
      digest.Add(k.failed);
      digest.Add(k.violations);
      for (const double v : latencies_[ci]) digest.AddDouble(v);
      for (const usecases::Stage& stage : scenarios_[ci]->stages) {
        const sched::PodView pod =
            cluster_.FindPod(scenarios_[ci]->name + "/" + stage.pod_name);
        digest.Add(pod && pod.bound() ? pod.node_id() : std::string("-"));
      }
    }
    for (const FaultState& f : faults_) {
      if (f.copy < 0) continue;
      if (f.recovered_ms < 0) {
        round.check_failures.push_back("copy " + std::to_string(f.copy) +
                                       " did not recover from its fault");
        continue;
      }
      round.recovery_ms.push_back(f.recovered_ms);
      digest.AddDouble(f.recovered_ms);
    }
    round.digest = digest.value();
  }

  struct FaultState {
    int copy = -1;
    std::int64_t at_ns = 0;
    double recovered_ms = -1.0;
    sim::EventHandle poll;
  };

  const Inputs& in_;
  Tracer& tracer_;
  sim::Engine engine_;
  continuum::Infrastructure infra_;
  net::Network network_;
  sched::Cluster cluster_;
  kb::Store store_;
  std::unique_ptr<mirto::MirtoAgent> agent_;
  std::vector<std::unique_ptr<usecases::Scenario>> scenarios_;
  std::vector<std::unique_ptr<usecases::RequestPipeline>> pipelines_;
  std::vector<std::size_t> launched_;
  std::vector<std::vector<double>> latencies_;
  std::vector<FaultState> faults_;
  RoundResult* round_ = nullptr;  // set while the window runs
  std::uint64_t violations_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakePilotServing(std::uint64_t seed) {
  return std::make_unique<WorldWorkload<World, Inputs>>(Generate(seed));
}

}  // namespace contbench
