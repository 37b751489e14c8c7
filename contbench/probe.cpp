#include "probe.hpp"

#include <algorithm>

#include "util/units.hpp"

namespace contbench {
namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Delta(std::uint64_t end, std::uint64_t start) {
  return static_cast<double>(util::SubSat(end, start));
}

double MeanUs(const Tracer::NameStats& s) { return s.durations_us.mean(); }

}  // namespace

Probe::Snapshot Probe::Take() const {
  Snapshot s;
  if (t_.engine != nullptr) s.events = t_.engine->executed_events();
  if (t_.network != nullptr) {
    s.delivered = t_.network->messages_delivered();
    s.dropped = t_.network->messages_dropped();
    s.bytes = t_.network->bytes_sent();
    s.retries = t_.network->retries();
  }
  if (t_.infra != nullptr) {
    for (const auto& node : t_.infra->nodes) {
      s.tasks += node->tasks_completed();
      s.energy_mj += node->total_energy_mj();
    }
  }
  for (const sched::Cluster* c : t_.clusters) {
    s.evictions += c->evictions();
    s.reschedules += c->reschedules();
  }
  for (const mirto::MirtoAgent* a : t_.agents) {
    const mirto::AgentStats& st = a->stats();
    s.mape_iterations += st.mape_iterations;
    s.nodes_observed += st.nodes_observed;
    s.reallocations += st.reallocations;
    s.accepted += st.deployments_accepted;
    s.rejected += st.deployments_rejected;
  }
  for (const kb::Store* store : t_.agent_stores) {
    s.store_revision += store->revision();
  }
  if (t_.kb != nullptr) {
    for (std::size_t i = 0; i < t_.kb->size(); ++i) {
      const kb::RaftNode& raft = *t_.kb->replica(i).raft;
      s.kb_commit = std::max(s.kb_commit, raft.commit_index());
      s.kb_term = std::max(s.kb_term, raft.current_term());
    }
  }
  if (t_.kb_client != nullptr) s.kb_client_retries = t_.kb_client->retries();
  return s;
}

void Probe::Start() {
  start_ = Take();
  queue_peak_ = node_queue_peak_ = pending_peak_ = 0;
  commit_lag_peak_ = 0;
}

void Probe::SampleTick() {
  if (t_.engine != nullptr) {
    queue_peak_ = std::max<std::uint64_t>(queue_peak_,
                                          t_.engine->pending_events());
  }
  if (t_.infra != nullptr) {
    std::uint64_t depth = 0;
    for (const auto& node : t_.infra->nodes) depth += node->QueueDepth();
    node_queue_peak_ = std::max(node_queue_peak_, depth);
  }
  std::uint64_t pending = 0;
  for (const sched::Cluster* c : t_.clusters) pending += c->PendingPods();
  pending_peak_ = std::max(pending_peak_, pending);
  if (t_.kb != nullptr) {
    const int leader = t_.kb->LeaderIndex();
    if (leader >= 0) {
      const std::int64_t commit =
          t_.kb->replica(static_cast<std::size_t>(leader)).raft->commit_index();
      std::int64_t slowest = commit;
      for (std::size_t i = 0; i < t_.kb->size(); ++i) {
        const kb::RaftNode& raft = *t_.kb->replica(i).raft;
        if (!raft.crashed()) slowest = std::min(slowest, raft.last_applied());
      }
      commit_lag_peak_ = std::max(commit_lag_peak_, commit - slowest);
    }
  }
}

void Probe::Finish(RoundResult& round, const Tracer& tracer) {
  const Snapshot end = Take();
  const double ops = static_cast<double>(round.attempted);
  std::map<std::string, double>& m = round.layer;

  // sim
  const double events = Delta(end.events, start_.events);
  m["sim.events"] = events;
  m["sim.events_per_op"] = Ratio(events, ops);
  m["sim.queue_peak"] = static_cast<double>(queue_peak_);
  // net
  const double delivered = Delta(end.delivered, start_.delivered);
  const double dropped = Delta(end.dropped, start_.dropped);
  m["net.msgs_per_op"] = Ratio(delivered + dropped, ops);
  m["net.bytes_per_op"] = Ratio(Delta(end.bytes, start_.bytes), ops);
  m["net.drop_frac"] = Ratio(dropped, delivered + dropped);
  m["net.retries"] = Delta(end.retries, start_.retries);
  // kb (Raft)
  m["kb.commits"] = static_cast<double>(end.kb_commit - start_.kb_commit);
  std::int64_t log_entries = 0;
  if (t_.kb != nullptr) {
    for (std::size_t i = 0; i < t_.kb->size(); ++i) {
      log_entries = std::max<std::int64_t>(
          log_entries,
          static_cast<std::int64_t>(t_.kb->replica(i).raft->log_size()));
    }
  }
  m["kb.log_entries"] = static_cast<double>(log_entries);
  m["kb.elections"] = static_cast<double>(end.kb_term - start_.kb_term);
  m["kb.client_retries"] =
      Delta(end.kb_client_retries, start_.kb_client_retries);
  m["kb.commit_lag_max"] = static_cast<double>(commit_lag_peak_);
  // kb (agent stores)
  m["kb.store_writes_per_op"] =
      Ratio(static_cast<double>(end.store_revision - start_.store_revision),
            ops);
  double keys = 0.0;
  for (const kb::Store* store : t_.agent_stores) {
    keys += static_cast<double>(store->size());
  }
  m["kb.store_keys"] = keys;
  // continuum
  m["continuum.tasks_per_op"] = Ratio(Delta(end.tasks, start_.tasks), ops);
  m["continuum.queue_depth_peak"] = static_cast<double>(node_queue_peak_);
  m["continuum.energy_mj_per_op"] =
      Ratio(end.energy_mj - start_.energy_mj, ops);
  // sched
  double running = 0.0;
  for (const sched::Cluster* c : t_.clusters) {
    running += static_cast<double>(c->RunningPods());
  }
  m["sched.running_pods"] = running;
  m["sched.pending_peak"] = static_cast<double>(pending_peak_);
  m["sched.evictions"] = Delta(end.evictions, start_.evictions);
  m["sched.reschedules"] = Delta(end.reschedules, start_.reschedules);
  // mirto
  const double iterations = Delta(end.mape_iterations, start_.mape_iterations);
  const double accepted = Delta(end.accepted, start_.accepted);
  const double rejected = Delta(end.rejected, start_.rejected);
  m["mirto.accept_frac"] = Ratio(accepted, accepted + rejected);
  m["mirto.mape_iterations"] = iterations;
  m["mirto.nodes_observed_per_iter"] =
      Ratio(Delta(end.nodes_observed, start_.nodes_observed), iterations);
  m["mirto.reallocations"] = Delta(end.reallocations, start_.reallocations);

  // Span-derived host times (traced rounds only; 0 otherwise).
  const std::vector<Tracer::NameStats> spans = tracer.Summarize();
  const auto at = [&spans](SpanName n) -> const Tracer::NameStats& {
    return spans[static_cast<std::size_t>(n)];
  };
  m["sim.self_s"] = at(SpanName::kSimTick).self_s;
  m["net.call_us"] = MeanUs(at(SpanName::kNetCall));
  m["kb.put_us"] = MeanUs(at(SpanName::kKbPut));
  m["kb.get_us"] = MeanUs(at(SpanName::kKbGet));
  m["usecases.launch_us"] = MeanUs(at(SpanName::kLaunch));
  const double admit_s = at(SpanName::kAdmit).total_s;
  m["mirto.auth_us"] = MeanUs(at(SpanName::kAuth));
  m["tosca.unpack_us_p50"] = at(SpanName::kUnpack).durations_us.p50();
  m["tosca.unpack_us_p99"] = at(SpanName::kUnpack).durations_us.p99();
  m["tosca.unpack_share"] = Ratio(at(SpanName::kUnpack).total_s, admit_s);
  m["mirto.deploy_us_p50"] = at(SpanName::kDeploy).durations_us.p50();
  m["mirto.deploy_us_p99"] = at(SpanName::kDeploy).durations_us.p99();
  m["mirto.deploy_share"] = Ratio(at(SpanName::kDeploy).total_s, admit_s);
  m["mirto.undeploy_us_p50"] = at(SpanName::kUndeploy).durations_us.p50();
  m["mirto.undeploy_us_p99"] = at(SpanName::kUndeploy).durations_us.p99();
  m["mirto.undeploy_share"] = Ratio(at(SpanName::kUndeploy).total_s, admit_s);
  m["mirto.auth_share"] = Ratio(at(SpanName::kAuth).total_s, admit_s);
  m["bench.admit_covered_frac"] =
      Ratio(at(SpanName::kAuth).total_s + at(SpanName::kUnpack).total_s +
                at(SpanName::kDeploy).total_s +
                at(SpanName::kUndeploy).total_s,
            admit_s);
  m["bench.spans"] = static_cast<double>(tracer.spans().size());
}

void CheckPlacements(const std::vector<sched::Cluster*>& clusters,
                     RoundResult& round) {
  for (sched::Cluster* cluster : clusters) {
    for (sched::NodeState* ns : cluster->NodeStates()) {
      const std::string& id = ns->node->id();
      if (!ns->node->up()) {
        for (const sched::PodView& pod : cluster->PodsOnNode(id)) {
          if (pod.phase() == sched::PodPhase::kRunning) {
            round.check_failures.push_back("pod " + pod.name() +
                                           " Running on down node " + id);
          }
        }
      }
      if (ns->cpu_allocated() > ns->cpu_capacity() + 1e-9) {
        round.check_failures.push_back(
            "node " + id + " committed cpu " +
            std::to_string(ns->cpu_allocated()) + " > capacity " +
            std::to_string(ns->cpu_capacity()));
      }
      if (ns->mem_allocated_mb() > ns->mem_capacity_mb()) {
        round.check_failures.push_back("node " + id +
                                       " committed memory exceeds capacity");
      }
    }
  }
}

}  // namespace contbench
