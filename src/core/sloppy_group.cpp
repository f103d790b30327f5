#include "core/sloppy_group.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "util/hashring.h"

namespace disco {

SloppyGroups::SloppyGroups(const NameTable& names, NodeId n,
                           int bits_offset)
    : SloppyGroups(names,
                   std::vector<double>(names.size(),
                                       static_cast<double>(n)),
                   bits_offset) {
  (void)n;
}

SloppyGroups::SloppyGroups(const NameTable& names,
                           const std::vector<double>& estimates,
                           int bits_offset)
    : names_(&names) {
  assert(estimates.size() == names.size());
  bits_.reserve(names.size());
  for (const double est : estimates) {
    bits_.push_back(
        std::clamp(SloppyGroupBits(est) + bits_offset, 0, 62));
  }
  uniform_bits_ =
      std::all_of(bits_.begin(), bits_.end(),
                  [&](int b) { return b == bits_.front(); }) &&
      !bits_.empty();

  if (uniform_bits_) {
    const int k = bits_.front();
    std::unordered_map<std::uint64_t, std::uint32_t> gid_index;
    group_index_.resize(names.size());
    for (NodeId v = 0; v < names.size(); ++v) {
      const std::uint64_t gid = GroupId(names.hash(v), k);
      auto [it, inserted] = gid_index.emplace(
          gid, static_cast<std::uint32_t>(members_by_group_.size()));
      if (inserted) members_by_group_.emplace_back();
      group_index_[v] = it->second;
      members_by_group_[it->second].push_back(v);
    }
  }
}

std::uint64_t SloppyGroups::group_of(NodeId v) const {
  return GroupId(names_->hash(v), bits_[v]);
}

bool SloppyGroups::Stores(NodeId w, NodeId t) const {
  const int need = std::max(bits_[w], bits_[t]);
  return CommonPrefixLength(names_->hash(w), names_->hash(t)) >= need;
}

std::size_t SloppyGroups::StoredAddressCount(NodeId w) const {
  if (uniform_bits_) return members_by_group_[group_index_[w]].size();
  std::size_t count = 0;
  for (NodeId t = 0; t < names_->size(); ++t) {
    if (Stores(w, t)) ++count;
  }
  return count;
}

std::vector<NodeId> SloppyGroups::StoredAddresses(NodeId w) const {
  if (uniform_bits_) return members_by_group_[group_index_[w]];
  std::vector<NodeId> out;
  for (NodeId t = 0; t < names_->size(); ++t) {
    if (Stores(w, t)) out.push_back(t);
  }
  return out;
}

std::vector<NodeId> SloppyGroups::GroupMembers(NodeId v) const {
  if (uniform_bits_) return members_by_group_[group_index_[v]];
  std::vector<NodeId> out;
  const std::uint64_t gid = group_of(v);
  for (NodeId w = 0; w < names_->size(); ++w) {
    if (GroupId(names_->hash(w), bits_[v]) == gid) out.push_back(w);
  }
  return out;
}

std::optional<NodeId> SloppyGroups::FindContact(const Vicinity& vic,
                                                NodeId t) const {
  const HashValue ht = names_->hash(t);
  int best_prefix = -1;
  NodeId best = kInvalidNode;
  // Members are in distance order, so on prefix ties the closest wins —
  // the paper's "closest node with a long enough prefix match" refinement.
  for (const Vicinity::Member& m : vic.members()) {
    const int p = CommonPrefixLength(names_->hash(m.node), ht);
    if (p > best_prefix) {
      best_prefix = p;
      best = m.node;
    }
  }
  if (best == kInvalidNode) return std::nullopt;
  return best;
}

}  // namespace disco
