// kb-replicated: the shared state. Five Raft replicas over 2 ms links with
// light seeded loss serve one client host that sends open-loop at a fixed
// simulated rate: about 75% KbClient::Put and 25% linearizable Get over a
// bounded key space. The leader is crashed at fixed points of the window
// and recovered later, so requests fall due while no leader exists.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "kb/cluster.hpp"
#include "net/transport.hpp"
#include "probe.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace contbench {
namespace {

constexpr int kReplicas = 5;
constexpr int kKeys = 512;
constexpr double kRateHz = 1000.0;
constexpr double kPutShare = 0.75;
constexpr double kLinkLoss = 0.002;
constexpr int kCrashes = 24;
const sim::SimTime kLink = sim::SimTime::Millis(2);
const sim::SimTime kWarmup = sim::SimTime::Seconds(2);
const sim::SimTime kWindow = sim::SimTime::Seconds(80);
const sim::SimTime kDrain = sim::SimTime::Seconds(4);
const sim::SimTime kTick = sim::SimTime::Millis(10);
const sim::SimTime kCrashFirst = sim::SimTime::Millis(2370);
const sim::SimTime kCrashSpacing = sim::SimTime::Millis(3100);
const sim::SimTime kCrashDuration = sim::SimTime::Millis(1600);
// Latency objective of one KB operation, for deadline_miss_frac.
constexpr double kDeadlineMs = 50.0;

std::string KeyName(int key) { return "/bench/k" + std::to_string(key); }

struct Op {
  std::int64_t due_ns = 0;
  int key = 0;
  bool put = true;
};

struct Inputs {
  std::uint64_t seed = 0;
  std::vector<Op> ops;  // op id = index + 1
  std::vector<std::int64_t> crashes;
};

Inputs Generate(std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  util::Rng rng(seed, "kb-ops");
  // Fixed rate: one request every 1/kRateHz; the seed picks kind and key.
  const auto count = static_cast<std::size_t>(kWindow.ToSecondsF() * kRateHz);
  for (std::size_t i = 0; i < count; ++i) {
    Op op;
    op.due_ns = kWarmup.ns + static_cast<std::int64_t>(
                                 static_cast<double>(i) * 1e9 / kRateHz);
    op.put = rng.NextBool(kPutShare);
    op.key = static_cast<int>(rng.NextBounded(kKeys));
    in.ops.push_back(op);
  }
  for (int k = 0; k < kCrashes; ++k) {
    in.crashes.push_back((kWarmup + kCrashFirst + kCrashSpacing * k).ns);
  }
  return in;
}

net::Topology MakeTopology() {
  net::Topology topo;
  for (int i = 0; i < kReplicas; ++i) {
    for (int j = i + 1; j < kReplicas; ++j) {
      topo.AddBidirectional("kb-" + std::to_string(i), "kb-" + std::to_string(j),
                            kLink, 1e9, kLinkLoss);
    }
    topo.AddBidirectional("kb-client", "kb-" + std::to_string(i), kLink, 1e9,
                          kLinkLoss);
  }
  return topo;
}

std::vector<net::HostId> ReplicaHosts() {
  std::vector<net::HostId> hosts;
  for (int i = 0; i < kReplicas; ++i) hosts.push_back("kb-" + std::to_string(i));
  return hosts;
}

class World {
 public:
  World(const Inputs& in, Tracer& tracer)
      : in_(in),
        tracer_(tracer),
        network_(engine_, MakeTopology(), in.seed),
        cluster_(network_, ReplicaHosts(), in.seed),
        client_(network_, cluster_, "kb-client") {
    // Every replica records which operation ids its store applied, so the
    // check can find each acknowledged write on the final leader.
    applied_.assign(kReplicas, std::vector<std::uint8_t>(in.ops.size() + 1, 0));
    for (std::size_t i = 0; i < static_cast<std::size_t>(kReplicas); ++i) {
      cluster_.replica(i).store->Watch(
          "/bench/", [this, i](const kb::WatchEvent& event) {
            if (event.type != kb::WatchEvent::Type::kPut) return;
            std::vector<std::uint8_t>& seen = applied_[i];
            const auto id =
                static_cast<std::size_t>(event.kv.value.at("id").as_int());
            if (id < seen.size()) seen[id] = 1;
          });
    }
  }

  /// Elects a leader and writes every key once (id 0), so reads always hit.
  bool SetUp(RoundResult& round) {
    if (!network_.topology().FindRoute("kb-client", "kb-4").ok()) {
      round.check_failures.push_back("no route kb-client -> kb-4");
      return false;
    }
    cluster_.Start();
    engine_.RunUntil(sim::SimTime::Millis(800));
    auto seeded = std::make_shared<int>(0);
    for (int k = 0; k < kKeys; ++k) {
      client_.Put(KeyName(k), util::Json::MakeObject().Set("id", 0),
                  [seeded](util::Status st) {
                    if (st.ok()) ++*seeded;
                  });
    }
    engine_.RunUntil(kWarmup);
    if (*seeded != kKeys || cluster_.LeaderIndex() < 0) {
      round.check_failures.push_back("KB warm-up did not commit every key");
      return false;
    }
    return true;
  }

  void RunWindow(RoundResult& round) {
    ProbeTargets targets;
    targets.engine = &engine_;
    targets.network = &network_;
    targets.kb = &cluster_;
    targets.kb_client = &client_;
    Probe probe(targets);
    probe.Start();

    outcomes_.assign(in_.ops.size(), Outcome{});
    next_op_ = 0;
    ScheduleNextOp();
    for (const std::int64_t at_ns : in_.crashes) {
      engine_.ScheduleAt(sim::SimTime::Nanos(at_ns), [this] {
        const int leader = cluster_.LeaderIndex();
        if (leader < 0) return;  // no leader to crash: no fault, no sample
        crashed_at_.push_back(engine_.Now().ns);
        const auto index = static_cast<std::size_t>(leader);
        cluster_.Crash(index);
        engine_.ScheduleAfter(kCrashDuration,
                              [this, index] { cluster_.Recover(index); });
      });
    }

    round_ = &round;
    const sim::SimTime end = kWarmup + kWindow + kDrain;
    RunTicks(engine_, end, kTick, tracer_, round, [&] {
      if (tracer_.enabled()) probe.SampleTick();
    });
    round_ = nullptr;
    // Settle: every replica is up again; let followers catch up before the
    // replicas are compared.
    engine_.RunUntil(end + sim::SimTime::Seconds(3));

    Account(round);
    probe.Finish(round, tracer_);
  }

 private:
  struct Outcome {
    std::int64_t done_ns = -1;  // -1 = no answer
    bool ok = false;
    std::int64_t read_id = -1;  // for reads: the id of the value returned
  };

  void ScheduleNextOp() {
    if (next_op_ >= in_.ops.size()) return;
    const std::size_t i = next_op_++;
    engine_.ScheduleAt(sim::SimTime::Nanos(in_.ops[i].due_ns), [this, i] {
      Issue(i);
      ScheduleNextOp();
    });
  }

  void Issue(std::size_t i) {
    const HostClock::time_point t0 = HostClock::now();
    IssueCall(i);
    if (round_ != nullptr) {
      round_->RecordOp(HostSecondsSince(t0) * 1e3);
    }
  }

  void IssueCall(std::size_t i) {
    const Op& op = in_.ops[i];
    const std::uint64_t id = i + 1;
    if (op.put) {
      ScopedSpan span(tracer_, SpanName::kKbPut, id);
      client_.Put(KeyName(op.key),
                  util::Json::MakeObject().Set("id", static_cast<std::int64_t>(id)),
                  [this, i](util::Status st) { Finish(i, st.ok(), -1); });
    } else {
      ScopedSpan span(tracer_, SpanName::kKbGet, id);
      client_.Get(KeyName(op.key), [this, i](util::StatusOr<util::Json> value) {
        Finish(i, value.ok(), value.ok() ? value->at("id").as_int(-1) : -1);
      });
    }
  }

  void Finish(std::size_t i, bool ok, std::int64_t read_id) {
    Outcome& o = outcomes_[i];
    if (o.done_ns >= 0) {
      double_answers_ = true;
      return;
    }
    o.done_ns = engine_.Now().ns;
    o.ok = ok;
    o.read_id = read_id;
  }

  void Account(RoundResult& round) {
    Digest digest;
    const int leader = cluster_.LeaderIndex();
    if (double_answers_) {
      round.check_failures.push_back("an operation was answered twice");
    }
    if (leader < 0) {
      round.check_failures.push_back("no leader after the settle period");
    }
    for (std::size_t i = 0; i < in_.ops.size(); ++i) {
      const Op& op = in_.ops[i];
      const Outcome& o = outcomes_[i];
      ++round.attempted;
      digest.Add(o.done_ns);
      digest.Add(static_cast<std::uint64_t>(o.ok));
      digest.Add(o.read_id);
      if (o.done_ns < 0) {
        ++round.failed;
        ++round.deadline_missed;
        continue;
      }
      if (!o.ok) {
        ++round.refused;
        ++round.deadline_missed;
        continue;
      }
      ++round.completed;
      const double latency_ms = static_cast<double>(o.done_ns - op.due_ns) * 1e-6;
      round.sim_latency_ms.push_back(latency_ms);
      if (latency_ms > kDeadlineMs) ++round.deadline_missed;
      if (op.put && leader >= 0 &&
          applied_[static_cast<std::size_t>(leader)][i + 1] == 0) {
        round.check_failures.push_back("acknowledged write " +
                                       std::to_string(i + 1) +
                                       " missing on the final leader");
      }
      // A read returns the initial value or a value written to that key.
      if (!op.put && o.read_id != 0 &&
          (o.read_id < 1 || static_cast<std::size_t>(o.read_id) > in_.ops.size() ||
           !in_.ops[static_cast<std::size_t>(o.read_id - 1)].put ||
           in_.ops[static_cast<std::size_t>(o.read_id - 1)].key != op.key)) {
        round.check_failures.push_back("read " + std::to_string(i + 1) +
                                       " returned a value never written to its key");
      }
    }
    // Recovery: from each crash to the first operation due after it that
    // completed successfully.
    for (const std::int64_t crash_ns : crashed_at_) {
      std::int64_t first_ns = -1;
      for (std::size_t i = 0; i < in_.ops.size(); ++i) {
        const Outcome& o = outcomes_[i];
        if (in_.ops[i].due_ns < crash_ns || !o.ok) continue;
        if (first_ns < 0 || o.done_ns < first_ns) first_ns = o.done_ns;
      }
      if (first_ns < 0) {
        round.check_failures.push_back("no operation served after a crash");
        continue;
      }
      round.recovery_ms.push_back(static_cast<double>(first_ns - crash_ns) * 1e-6);
      digest.AddDouble(round.recovery_ms.back());
    }
    // All live replicas agree on committed state.
    std::vector<std::uint64_t> replica_digest;
    for (int r = 0; r < kReplicas; ++r) {
      const kb::Replica& rep = cluster_.replica(static_cast<std::size_t>(r));
      if (rep.raft->crashed()) continue;
      Digest d;
      d.Add(rep.raft->last_applied());
      for (const kb::KeyValue& kv : rep.store->Range("/bench/")) {
        d.Add(kv.key);
        d.Add(kv.value.at("id").as_int(-1));
        d.Add(kv.mod_revision);
      }
      replica_digest.push_back(d.value());
    }
    for (const std::uint64_t d : replica_digest) {
      if (d != replica_digest.front()) {
        round.check_failures.push_back("live replicas disagree on committed state");
        break;
      }
    }
    if (!replica_digest.empty()) digest.Add(replica_digest.front());
    round.digest = digest.value();
  }

  const Inputs& in_;
  Tracer& tracer_;
  sim::Engine engine_;
  net::Network network_;
  kb::KbCluster cluster_;
  kb::KbClient client_;
  std::vector<std::vector<std::uint8_t>> applied_;
  std::vector<Outcome> outcomes_;
  std::vector<std::int64_t> crashed_at_;
  RoundResult* round_ = nullptr;  // set while the window runs
  std::size_t next_op_ = 0;
  bool double_answers_ = false;
};

}  // namespace

std::unique_ptr<Workload> MakeKbReplicated(std::uint64_t seed) {
  return std::make_unique<WorldWorkload<World, Inputs>>(Generate(seed));
}

}  // namespace contbench
