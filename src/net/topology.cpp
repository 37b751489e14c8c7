#include "net/topology.hpp"

#include <algorithm>
#include <queue>

namespace myrtus::net {

void Topology::AddHost(const HostId& id) {
  if (host_index_.count(id) > 0) return;
  host_index_[id] = hosts_.size();
  hosts_.push_back(id);
  out_links_.emplace_back();
  rows_.clear();
}

void Topology::AddLink(Link link) {
  AddHost(link.from);
  AddHost(link.to);
  const std::size_t index = links_.size();
  out_links_[host_index_[link.from]].push_back(index);
  links_.push_back(std::move(link));
  link_up_.push_back(true);
  rows_.clear();
}

void Topology::AddBidirectional(const HostId& a, const HostId& b,
                                sim::SimTime latency, double bandwidth_bps,
                                double loss_rate, sim::SimTime jitter) {
  AddLink(Link{a, b, latency, bandwidth_bps, loss_rate, jitter});
  AddLink(Link{b, a, latency, bandwidth_bps, loss_rate, jitter});
}

void Topology::SetLinkUp(std::size_t index, bool up) {
  if (index < link_up_.size() && link_up_[index] != up) {
    link_up_[index] = up;
    rows_.clear();
  }
}

bool Topology::IsLinkUp(std::size_t index) const {
  return index < link_up_.size() && link_up_[index];
}

std::optional<std::size_t> Topology::HostIndex(const HostId& id) const {
  const auto it = host_index_.find(id);
  if (it == host_index_.end()) return std::nullopt;
  return it->second;
}

const std::vector<std::int64_t>& Topology::DistanceRowNs(std::size_t src) const {
  return Row(src).dist_ns;
}

const Topology::RouteRow& Topology::Row(std::size_t src) const {
  const std::size_t n = hosts_.size();
  if (rows_.empty()) rows_.resize(n);
  RouteRow& row = rows_[src];
  if (!row.dist_ns.empty()) return row;

  // Dijkstra from `src`, O(E log V) for the one row.
  row.dist_ns.assign(n, std::numeric_limits<std::int64_t>::max());
  row.first_link.assign(n, -1);
  std::vector<std::int64_t>& dist = row.dist_ns;
  std::vector<std::int32_t>& first_link = row.first_link;
  using QItem = std::pair<std::int64_t, std::size_t>;  // (dist, host)
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
  dist[src] = 0;
  pq.emplace(0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[u]) continue;
    for (const std::size_t li : out_links_[u]) {
      if (!link_up_[li]) continue;
      const Link& l = links_[li];
      const std::size_t v = host_index_.at(l.to);
      const std::int64_t nd = d + l.latency.ns;
      if (nd < dist[v]) {
        dist[v] = nd;
        first_link[v] = (u == src) ? static_cast<std::int32_t>(li) : first_link[u];
        pq.emplace(nd, v);
      }
    }
  }
  return row;
}

util::StatusOr<Route> Topology::FindRoute(const HostId& from,
                                          const HostId& to) const {
  const auto fit = host_index_.find(from);
  const auto tit = host_index_.find(to);
  if (fit == host_index_.end() || tit == host_index_.end()) {
    return util::Status::NotFound("unknown host in route query");
  }
  if (fit->second == tit->second) {
    return Route{};  // loopback: empty path, zero latency
  }
  Route route;
  std::size_t cur = fit->second;
  const std::size_t dst = tit->second;
  route.min_bandwidth_bps = std::numeric_limits<double>::max();
  // Walk first-hop pointers; bounded by host count to guard against cycles.
  for (std::size_t step = 0; step <= hosts_.size(); ++step) {
    if (cur == dst) {
      if (route.link_indices.empty()) break;
      return route;
    }
    const std::int32_t li = Row(cur).first_link[dst];
    if (li < 0) break;
    const Link& l = links_[static_cast<std::size_t>(li)];
    route.link_indices.push_back(static_cast<std::size_t>(li));
    route.propagation += l.latency;
    route.min_bandwidth_bps = std::min(route.min_bandwidth_bps, l.bandwidth_bps);
    cur = host_index_.at(l.to);
  }
  if (cur == dst && !route.link_indices.empty()) return route;
  return util::Status::NotFound("no route from " + from + " to " + to);
}

}  // namespace myrtus::net
