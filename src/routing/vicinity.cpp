#include "routing/vicinity.h"

#include <algorithm>
#include <cassert>

namespace disco {

Vicinity::Vicinity(NodeId owner, std::vector<NearNode> members,
                   std::vector<std::uint32_t> parent_pos)
    : owner_(owner), members_(std::move(members)),
      parent_pos_(std::move(parent_pos)) {
  members_.shrink_to_fit();  // S4 balls arrive with doubling slack
  parent_pos_.shrink_to_fit();
  const auto size = static_cast<std::uint32_t>(members_.size());
  assert(parent_pos_.size() == size);
  index_.reserve(size);
  for (std::uint32_t i = 0; i < size; ++i) {
    index_.push_back({members_[i].node, i});
    assert((members_[i].node == owner_) == (parent_pos_[i] == kNone));
    assert(parent_pos_[i] == kNone ||
           (parent_pos_[i] < i &&
            members_[parent_pos_[i]].node == members_[i].parent));
  }
  std::sort(index_.begin(), index_.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              return a.node < b.node;
            });
}

Vicinity Vicinity::Nearest(const Graph& g, NodeId owner, std::size_t k) {
  std::vector<std::uint32_t> parent_pos;
  std::vector<NearNode> members = KNearest(g, owner, k, &parent_pos);
  return Vicinity(owner, std::move(members), std::move(parent_pos));
}

Vicinity Vicinity::Ball(const Graph& g, NodeId owner, Dist radius) {
  std::vector<std::uint32_t> parent_pos;
  std::vector<NearNode> members = WithinRadius(g, owner, radius, &parent_pos);
  return Vicinity(owner, std::move(members), std::move(parent_pos));
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
  for (std::uint32_t p = parent_pos_[last]; p != kNone; p = parent_pos_[p]) {
    ++hops;
  }
  std::vector<NodeId> path(hops);
  std::uint32_t p = last;
  for (std::size_t i = hops; i-- > 0; p = parent_pos_[p]) {
    path[i] = members_[p].node;
  }
  return path;
}

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
  memo_.Prewarm(nodes, [this](NodeId u) { return Compute(u); });
}

}  // namespace disco
