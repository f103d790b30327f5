#include "core/name_resolution.h"

namespace disco {
namespace {

// Virtual points per landmark on the resolution ring (§4.5 suggests
// multiple hash functions to tame consistent hashing's imbalance).
constexpr int kResolutionVirtualPoints = 8;

}  // namespace

ResolutionDb::ResolutionDb(const NameTable& names,
                           const LandmarkSet& landmarks)
    : names_(&names), ring_(landmarks.landmarks, kResolutionVirtualPoints) {
  for (NodeId v = 0; v < names.size(); ++v) {
    owned_[ring_.Owner(names.hash(v))].push_back(v);
  }
}

NodeId ResolutionDb::OwnerLandmark(HashValue h) const {
  return ring_.Owner(h);
}

std::size_t ResolutionDb::EntriesAt(NodeId landmark) const {
  const auto it = owned_.find(landmark);
  return it == owned_.end() ? 0 : it->second.size();
}

std::vector<NodeId> ResolutionDb::OwnedNodes(NodeId landmark) const {
  const auto it = owned_.find(landmark);
  return it == owned_.end() ? std::vector<NodeId>{} : it->second;
}

}  // namespace disco
