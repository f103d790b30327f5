#include "routing/vicinity.h"

#include <algorithm>
#include <cassert>

namespace disco {

Vicinity::Vicinity(NodeId owner, std::vector<NearNode> members)
    : owner_(owner), members_(std::move(members)) {
  index_.reserve(members_.size());
  for (std::uint32_t i = 0; i < members_.size(); ++i) {
    index_.emplace(members_[i].node, i);
  }
}

Dist Vicinity::DistanceTo(NodeId v) const {
  const auto it = index_.find(v);
  return it == index_.end() ? kInfDist : members_[it->second].dist;
}

std::vector<NodeId> Vicinity::PathTo(NodeId v) const {
  auto it = index_.find(v);
  if (it == index_.end()) return {};
  std::vector<NodeId> path;
  // Parents point toward the owner and were settled earlier, so they are
  // always present in the member index.
  NodeId cur = v;
  while (cur != kInvalidNode) {
    path.push_back(cur);
    if (cur == owner_) break;
    const auto pit = index_.find(cur);
    assert(pit != index_.end());
    cur = members_[pit->second].parent;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

VicinityCache::VicinityCache(const Graph& g, std::size_t k,
                             std::size_t capacity)
    : g_(g), k_(std::min<std::size_t>(k, g.num_nodes())), memo_(capacity) {}

std::shared_ptr<const Vicinity> VicinityCache::Compute(NodeId v) const {
  return std::make_shared<const Vicinity>(v, KNearest(g_, v, k_));
}

std::shared_ptr<const Vicinity> VicinityCache::Get(NodeId v) {
  return memo_.Get(v, [this](NodeId u) { return Compute(u); });
}

void VicinityCache::Prewarm(const std::vector<NodeId>& nodes) {
  memo_.Prewarm(nodes, [this](NodeId u) { return Compute(u); });
}

}  // namespace disco
