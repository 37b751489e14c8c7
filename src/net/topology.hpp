// Network topology for the continuum: hosts connected by directed links with
// latency/bandwidth/jitter/loss. Routing is shortest-path by propagation
// latency, which matches the paper's assumption that all components speak the
// same protocols over a multi-layer network (§III Network). Shortest paths
// are kept as per-source rows, each built by one Dijkstra the first time its
// source is queried and dropped by any mutation, so a fleet of ~1k hosts pays
// only for the sources it routes from.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/status.hpp"

namespace myrtus::net {

using HostId = std::string;

/// One directed link. Bidirectional physical cables are modeled as two links.
struct Link {
  HostId from;
  HostId to;
  sim::SimTime latency;        // propagation delay
  double bandwidth_bps = 1e9;  // serialization rate
  double loss_rate = 0.0;      // i.i.d. packet loss in [0,1)
  sim::SimTime jitter;         // uniform [0, jitter] added per packet
};

/// Route lookup result: the ordered list of links from src to dst.
struct Route {
  std::vector<std::size_t> link_indices;
  sim::SimTime propagation;  // sum of link latencies
  double min_bandwidth_bps = 0.0;
};

class Topology {
 public:
  /// Registers a host; idempotent.
  void AddHost(const HostId& id);
  /// Adds a directed link. Hosts are auto-registered.
  void AddLink(Link link);
  /// Adds both directions with identical parameters.
  void AddBidirectional(const HostId& a, const HostId& b, sim::SimTime latency,
                        double bandwidth_bps, double loss_rate = 0.0,
                        sim::SimTime jitter = {});

  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const Link& link(std::size_t index) const { return links_[index]; }
  /// For non-routing fields (loss, jitter, bandwidth): route rows are not
  /// dropped, so a latency changed here does not reroute.
  Link& mutable_link(std::size_t index) { return links_[index]; }
  [[nodiscard]] const std::vector<HostId>& hosts() const { return hosts_; }

  /// Marks a link up/down (failure injection). Down links are excluded from
  /// routing.
  void SetLinkUp(std::size_t index, bool up);
  [[nodiscard]] bool IsLinkUp(std::size_t index) const;

  /// Shortest route by propagation latency. NOT_FOUND when disconnected.
  /// Builds the route rows of the hops' sources on demand, so although the
  /// method is const it mutates a cache: Topology is single-threaded, like
  /// the simulation that owns it, and must not be queried concurrently.
  [[nodiscard]] util::StatusOr<Route> FindRoute(const HostId& from,
                                                const HostId& to) const;

  /// Index of a host in hosts(); nullopt when unknown. Indices are stable:
  /// hosts are never removed.
  [[nodiscard]] std::optional<std::size_t> HostIndex(const HostId& id) const;
  /// Shortest-path propagation delay in ns from host `src` (an index into
  /// hosts()) to every host, indexed like hosts(): 0 at `src`, max() where
  /// unreachable. Equals FindRoute(...).propagation for every reachable
  /// pair. Builds the row on demand (single-threaded, as FindRoute); the
  /// reference stays valid until the next AddHost, AddLink or SetLinkUp.
  [[nodiscard]] const std::vector<std::int64_t>& DistanceRowNs(
      std::size_t src) const;

 private:
  /// Single-source shortest paths: distance and first link (-1 when
  /// unreachable or at the source) toward every host.
  struct RouteRow {
    std::vector<std::int64_t> dist_ns;
    std::vector<std::int32_t> first_link;
  };
  const RouteRow& Row(std::size_t src) const;

  std::vector<HostId> hosts_;
  std::map<HostId, std::size_t> host_index_;
  std::vector<Link> links_;
  std::vector<bool> link_up_;
  std::vector<std::vector<std::size_t>> out_links_;  // per host

  // Per-source rows, built on first query; empty when never queried since
  // the last mutation.
  mutable std::vector<RouteRow> rows_;
};

}  // namespace myrtus::net
