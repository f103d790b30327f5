// Name resolution (§4.3): a consistent-hashing database over the globally
// known landmark set. Node v inserts (h(name_v) -> address_v) at the owner
// landmark; any node can query it. On its own this gives unbounded
// first-packet stretch (the owner may be across the world), which is why
// Disco uses it only to bootstrap overlay fingers and as a w.h.p.-never-
// taken routing fallback, while S4-style first packets go through it —
// the contrast the stretch figures measure.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/names.h"
#include "routing/landmarks.h"
#include "util/consistent_hash.h"

namespace disco {

class ResolutionDb {
 public:
  ResolutionDb(const NameTable& names, const LandmarkSet& landmarks);

  /// The landmark storing the address record for ring position `h`.
  NodeId OwnerLandmark(HashValue h) const;

  /// Number of address records hosted by `landmark` (0 for non-landmarks);
  /// the resolution-DB component of a landmark's state (§4.5).
  std::size_t EntriesAt(NodeId landmark) const;

  /// The nodes whose records `landmark` hosts (for byte-level state
  /// accounting, which needs each stored address's explicit-route size).
  std::vector<NodeId> OwnedNodes(NodeId landmark) const;

 private:
  const NameTable* names_;
  ConsistentHashRing ring_;
  std::unordered_map<NodeId, std::vector<NodeId>> owned_;
};

}  // namespace disco
