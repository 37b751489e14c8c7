// Knowledge-Base cluster facade: N Raft replicas, each applying committed
// commands to its local MVCC store, plus a retrying client that discovers and
// follows the leader — the "one ontological KB, distributed across layers"
// of §III. Watches fire on every replica as entries apply, so a fog-local
// MIRTO agent observes updates without a round trip to the leader.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kb/raft.hpp"
#include "kb/store.hpp"
#include "net/transport.hpp"

namespace myrtus::kb {

/// One KB replica: a Raft node + the store it applies into.
struct Replica {
  std::unique_ptr<RaftNode> raft;
  std::unique_ptr<Store> store;
};

class KbCluster {
 public:
  /// Creates `replica_hosts.size()` replicas on the given network (the hosts
  /// must exist or be reachable in the topology; they are auto-added).
  KbCluster(net::Network& network, std::vector<net::HostId> replica_hosts,
            std::uint64_t seed, RaftConfig config = {});

  /// Starts all replicas (arms election timers).
  void Start();

  [[nodiscard]] std::size_t size() const { return replicas_.size(); }
  [[nodiscard]] Replica& replica(std::size_t i) { return replicas_[i]; }
  [[nodiscard]] const std::vector<net::HostId>& hosts() const { return hosts_; }

  /// Index of the current leader, or -1 when no leader is established.
  [[nodiscard]] int LeaderIndex() const;

  /// Crash/recover by replica index (failure injection).
  void Crash(std::size_t i) { replicas_[i].raft->Crash(); }
  void Recover(std::size_t i) { replicas_[i].raft->Recover(); }

 private:
  net::Network& network_;
  std::vector<net::HostId> hosts_;
  std::vector<Replica> replicas_;
};

/// Client API: linearizable writes through the leader with bounded retries,
/// leader-reads, and local (serializable) reads from a chosen replica.
class KbClient {
 public:
  /// `origin` is the calling host (RPC latency is charged from there).
  KbClient(net::Network& network, KbCluster& cluster, net::HostId origin);

  using DoneCallback = std::function<void(util::Status)>;
  using GetCallback = std::function<void(util::StatusOr<util::Json>)>;

  /// Replicated put: resolves once the write is committed.
  void Put(const std::string& key, util::Json value, DoneCallback done);
  /// Replicated delete.
  void Delete(const std::string& key, DoneCallback done);
  /// Linearizable read served by the leader.
  void Get(const std::string& key, GetCallback done);

  [[nodiscard]] std::uint64_t retries() const { return retries_; }

  /// Transport-level retry policy for the client's RPC legs. Defaults to a
  /// short-attempt retrying policy; set net::RetryPolicy::None() to get the
  /// legacy single-attempt behavior (ablations, tests).
  void set_rpc_retry(net::RetryPolicy policy) { rpc_retry_ = policy; }
  [[nodiscard]] const net::RetryPolicy& rpc_retry() const { return rpc_retry_; }

 private:
  void ProposeWithRetry(util::Json command, DoneCallback done, int attempts_left,
                        int hint_index);
  int GuessLeaderIndex(int hint_index) const;

  net::Network& network_;
  KbCluster& cluster_;
  net::HostId origin_;
  net::RetryPolicy rpc_retry_;
  std::uint64_t retries_ = 0;
  int cached_leader_ = 0;
};

}  // namespace myrtus::kb
