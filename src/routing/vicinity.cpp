#include "routing/vicinity.h"

#include <algorithm>
#include <cassert>

namespace disco {

Vicinity::Vicinity(NodeId owner, const std::vector<NearNode>& near,
                   const std::vector<std::uint32_t>& parent_pos)
    : owner_(owner) {
  const auto size = static_cast<std::uint32_t>(near.size());
  assert(parent_pos.size() == size);
  members_.reserve(size);
  index_.reserve(size);
  for (std::uint32_t i = 0; i < size; ++i) {
    members_.push_back({near[i].node, parent_pos[i], near[i].dist});
    index_.push_back({near[i].node, i});
    assert((near[i].node == owner_) == (parent_pos[i] == kNone));
    assert(parent_pos[i] == kNone ||
           (parent_pos[i] < i && near[parent_pos[i]].node == near[i].parent));
  }
  std::sort(index_.begin(), index_.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              return a.node < b.node;
            });
}

Vicinity Vicinity::Nearest(const Graph& g, NodeId owner, std::size_t k) {
  std::vector<std::uint32_t> parent_pos;
  return Vicinity(owner, KNearest(g, owner, k, &parent_pos), parent_pos);
}

Vicinity Vicinity::Ball(const Graph& g, NodeId owner, Dist radius) {
  std::vector<std::uint32_t> parent_pos;
  return Vicinity(owner, WithinRadius(g, owner, radius, &parent_pos),
                  parent_pos);
}

std::uint32_t Vicinity::Find(NodeId v) const {
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), v,
      [](const IndexEntry& e, NodeId key) { return e.node < key; });
  return it != index_.end() && it->node == v ? it->pos : kNone;
}

Dist Vicinity::DistanceTo(NodeId v) const {
  const std::uint32_t pos = Find(v);
  return pos == kNone ? kInfDist : members_[pos].dist;
}

std::vector<NodeId> Vicinity::PathTo(NodeId v) const {
  const std::uint32_t last = Find(v);
  if (last == kNone) return {};
  std::size_t hops = 1;
  for (std::uint32_t p = members_[last].parent_pos; p != kNone;
       p = members_[p].parent_pos) {
    ++hops;
  }
  std::vector<NodeId> path(hops);
  std::uint32_t p = last;
  for (std::size_t i = hops; i-- > 0; p = members_[p].parent_pos) {
    path[i] = members_[p].node;
  }
  return path;
}

VicinityCache::VicinityCache(const Graph& g, std::size_t k)
    : VicinityCache(g, k, kMemberBudget / std::max<std::size_t>(k, 1)) {}

VicinityCache::VicinityCache(const Graph& g, std::size_t k,
                             std::size_t capacity)
    : g_(g), k_(std::min<std::size_t>(k, g.num_nodes())), memo_(capacity) {}

std::shared_ptr<const Vicinity> VicinityCache::Compute(NodeId v) const {
  return std::make_shared<const Vicinity>(Vicinity::Nearest(g_, v, k_));
}

std::shared_ptr<const Vicinity> VicinityCache::Get(NodeId v) {
  return memo_.Get(v, [this](NodeId u) { return Compute(u); });
}

void VicinityCache::Prewarm(const std::vector<NodeId>& nodes) {
  memo_.Prewarm(nodes, [this](NodeId u) { return Compute(u); },
                kPrewarmLimit);
}

}  // namespace disco
