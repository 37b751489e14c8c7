#include "kb/cluster.hpp"

#include <utility>

namespace myrtus::kb {
namespace {

/// Applies a committed KB command to a replica's store.
void ApplyCommand(Store& store, const util::Json& cmd) {
  const std::string op = cmd.at("op").as_string();
  if (op == "put") {
    store.Put(cmd.at("key").as_string(), cmd.at("value"));
  } else if (op == "del") {
    store.Delete(cmd.at("key").as_string());
  }
}

/// Transport policy for client→replica RPCs. A lost packet costs one short
/// attempt timeout instead of the 5 s plain-Call default; leader discovery
/// and election waits stay in ProposeWithRetry's outer loop, which sees only
/// application errors (wrong leader, no leader) untouched by this layer.
net::RetryPolicy ClientRetryPolicy() {
  net::RetryPolicy p;
  p.max_attempts = 3;
  p.initial_backoff = sim::SimTime::Millis(25);
  p.attempt_timeout = sim::SimTime::Millis(300);
  p.overall_deadline = sim::SimTime::Seconds(2);
  p.use_circuit_breaker = false;  // replicas are essential destinations
  return p;
}

}  // namespace

KbCluster::KbCluster(net::Network& network,
                     std::vector<net::HostId> replica_hosts, std::uint64_t seed,
                     RaftConfig config)
    : network_(network), hosts_(std::move(replica_hosts)) {
  replicas_.reserve(hosts_.size());
  for (const net::HostId& host : hosts_) {
    Replica r;
    r.store = std::make_unique<Store>();
    Store* store = r.store.get();
    r.raft = std::make_unique<RaftNode>(
        network_, host, hosts_, seed,
        [store](const util::Json& cmd) { ApplyCommand(*store, cmd); }, config);
    replicas_.push_back(std::move(r));
  }

  // Client-facing RPC endpoints on every replica.
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    RaftNode* raft = replicas_[i].raft.get();
    Store* store = replicas_[i].store.get();
    network_.RegisterAsyncRpc(
        hosts_[i], "kb.propose",
        [raft](const net::HostId&, const util::Json& req,
               net::Network::RpcResponder respond) {
          raft->Propose(req, [respond = std::move(respond)](
                                 util::StatusOr<std::int64_t> result) {
            if (result.ok()) {
              respond(util::Json::MakeObject().Set("index", *result));
            } else {
              respond(result.status());
            }
          });
        });
    network_.RegisterRpc(
        hosts_[i], "kb.get",
        [raft, store](const net::HostId&, const util::Json& req)
            -> util::StatusOr<util::Json> {
          if (raft->crashed()) return util::Status::Unavailable("crashed");
          const bool linearizable = req.at("linearizable").as_bool(true);
          if (linearizable && raft->role() != RaftRole::kLeader) {
            return util::Status::FailedPrecondition(
                "not leader; try " + (raft->known_leader().empty()
                                          ? std::string("unknown")
                                          : raft->known_leader()));
          }
          auto kv = store->Get(req.at("key").as_string());
          if (!kv.ok()) return kv.status();
          return util::Json::MakeObject()
              .Set("value", kv->value)
              .Set("mod_revision", kv->mod_revision)
              .Set("version", kv->version);
        });
  }
}

void KbCluster::Start() {
  for (Replica& r : replicas_) r.raft->Start();
}

int KbCluster::LeaderIndex() const {
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (!replicas_[i].raft->crashed() &&
        replicas_[i].raft->role() == RaftRole::kLeader) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

KbClient::KbClient(net::Network& network, KbCluster& cluster, net::HostId origin)
    : network_(network),
      cluster_(cluster),
      origin_(std::move(origin)),
      rpc_retry_(ClientRetryPolicy()) {
  network_.topology().AddHost(origin_);
}

int KbClient::GuessLeaderIndex(int hint_index) const {
  if (hint_index >= 0) return hint_index;
  const int known = cluster_.LeaderIndex();
  if (known >= 0) return known;
  return cached_leader_;
}

void KbClient::ProposeWithRetry(util::Json command, DoneCallback done,
                                int attempts_left, int hint_index) {
  if (attempts_left <= 0) {
    done(util::Status::Unavailable("KB unreachable after retries"));
    return;
  }
  const int target = GuessLeaderIndex(hint_index) %
                     static_cast<int>(cluster_.size());
  network_.CallWithRetry(
      origin_, cluster_.hosts()[static_cast<std::size_t>(target)], "kb.propose",
      command,
      [this, command, done = std::move(done), attempts_left,
       target](util::StatusOr<util::Json> reply) mutable {
        if (reply.ok()) {
          cached_leader_ = target;
          done(util::Status::Ok());
          return;
        }
        ++retries_;
        // Parse a "try <host>" hint if present; otherwise round-robin.
        int next_hint = -1;
        const std::string& msg = reply.status().message();
        const std::size_t pos = msg.rfind("try ");
        if (pos != std::string::npos) {
          const std::string hinted = msg.substr(pos + 4);
          for (std::size_t i = 0; i < cluster_.hosts().size(); ++i) {
            if (cluster_.hosts()[i] == hinted) {
              next_hint = static_cast<int>(i);
              break;
            }
          }
        }
        if (next_hint < 0) next_hint = (target + 1) % static_cast<int>(cluster_.size());
        // Small backoff so elections can settle.
        network_.engine().ScheduleAfter(
            sim::SimTime::Millis(50),
            [this, command = std::move(command), done = std::move(done),
             attempts_left, next_hint]() mutable {
              ProposeWithRetry(std::move(command), std::move(done),
                               attempts_left - 1, next_hint);
            });
      },
      rpc_retry_);
}

void KbClient::Put(const std::string& key, util::Json value, DoneCallback done) {
  // "lease" is unread, but its bytes feed every Raft message's simulated delay.
  util::Json cmd = util::Json::MakeObject()
                       .Set("op", "put")
                       .Set("key", key)
                       .Set("value", std::move(value))
                       .Set("lease", 0);
  ProposeWithRetry(std::move(cmd), std::move(done), 10, -1);
}

void KbClient::Delete(const std::string& key, DoneCallback done) {
  util::Json cmd = util::Json::MakeObject().Set("op", "del").Set("key", key);
  ProposeWithRetry(std::move(cmd), std::move(done), 10, -1);
}

void KbClient::Get(const std::string& key, GetCallback done) {
  const int target = GuessLeaderIndex(-1) % static_cast<int>(cluster_.size());
  util::Json req =
      util::Json::MakeObject().Set("key", key).Set("linearizable", true);
  network_.CallWithRetry(
      origin_, cluster_.hosts()[static_cast<std::size_t>(target)], "kb.get",
      std::move(req),
      [done = std::move(done)](util::StatusOr<util::Json> reply) {
        if (!reply.ok()) {
          done(reply.status());
          return;
        }
        done(reply->at("value"));
      },
      rpc_retry_);
}

}  // namespace myrtus::kb
