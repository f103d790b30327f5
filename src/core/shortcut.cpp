#include "core/shortcut.h"

#include <algorithm>
#include <cassert>

#include "core/route.h"
#include "graph/shortest_path.h"

namespace disco {
namespace {

// Weight of the (cheapest) edge between adjacent nodes a and b.
Dist HopWeight(const Graph& g, NodeId a, NodeId b) {
  const std::optional<Neighbor> arc = g.CheapestArc(a, b);
  assert(arc && "plan contains a non-edge");
  return arc ? arc->weight : kInfDist;
}

std::vector<NodeId> Reversed(std::vector<NodeId> p) {
  std::reverse(p.begin(), p.end());
  return p;
}

}  // namespace

const char* ShortcutName(Shortcut mode) {
  switch (mode) {
    case Shortcut::kNone:
      return "No Shortcutting";
    case Shortcut::kToDestination:
      return "To-Destination Shortcuts";
    case Shortcut::kShorterOfForwardReverse:
      return "Shorter{ReversePath, ForwardPath}";
    case Shortcut::kNoPathKnowledge:
      return "No Path Knowledge";
    case Shortcut::kUpDownStream:
      return "Up-Down Stream";
    case Shortcut::kPathKnowledge:
      return "Using Path Knowledge";
  }
  return "?";
}

std::vector<NodeId> ApplyToDestination(std::vector<NodeId> path,
                                       const DirectPathFn& direct) {
  if (path.size() < 2) return path;
  const NodeId t = path.back();
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    std::vector<NodeId> cut = direct(path[i], t);
    if (cut.empty()) continue;
    assert(cut.front() == path[i] && cut.back() == t);
    path.resize(i + 1);
    return JoinPaths(std::move(path), cut);
  }
  return path;
}

std::vector<NodeId> ApplyUpDownStream(const Graph& g,
                                      const std::vector<NodeId>& path,
                                      const VicinityFn& vicinity) {
  if (path.size() < 3) return path;

  // Cumulative plan distance from the source to each plan position.
  std::vector<Dist> cum(path.size(), 0);
  for (std::size_t i = 1; i < path.size(); ++i) {
    cum[i] = cum[i - 1] + HopWeight(g, path[i - 1], path[i]);
  }

  std::vector<NodeId> result{path[0]};
  std::size_t i = 0;
  while (i + 1 < path.size()) {
    const NodeId u = path[i];
    const auto vic = vicinity(u);
    std::size_t cut_j = 0;
    std::vector<NodeId> cut_path;
    // Prefer the farthest strictly improving splice.
    for (std::size_t j = path.size() - 1; j > i; --j) {
      const Dist dv = vic->DistanceTo(path[j]);
      if (dv < cum[j] - cum[i]) {
        cut_j = j;
        cut_path = vic->PathTo(path[j]);
        break;
      }
    }
    if (!cut_path.empty()) {
      result.insert(result.end(), cut_path.begin() + 1, cut_path.end());
      i = cut_j;
    } else {
      result.push_back(path[i + 1]);
      ++i;
    }
  }
  return result;
}

std::vector<NodeId> ApplyShortcutMode(
    Shortcut mode, const Graph& g, std::vector<NodeId> forward_plan,
    const std::function<std::vector<NodeId>()>& reverse_plan,
    const DirectPathFn& direct, const VicinityFn& vicinity) {
  auto pick_shorter = [&g](std::vector<NodeId> a,
                           std::vector<NodeId> b) {
    if (b.empty()) return a;
    if (a.empty()) return b;
    return PathLength(g, a) <= PathLength(g, b) ? a : b;
  };

  switch (mode) {
    case Shortcut::kNone:
      return forward_plan;
    case Shortcut::kToDestination:
      return ApplyToDestination(std::move(forward_plan), direct);
    case Shortcut::kShorterOfForwardReverse:
      return pick_shorter(std::move(forward_plan),
                          Reversed(reverse_plan()));
    case Shortcut::kNoPathKnowledge:
      return pick_shorter(
          ApplyToDestination(std::move(forward_plan), direct),
          Reversed(ApplyToDestination(reverse_plan(), direct)));
    case Shortcut::kUpDownStream:
      return ApplyUpDownStream(g, forward_plan, vicinity);
    case Shortcut::kPathKnowledge:
      return pick_shorter(
          ApplyUpDownStream(g, forward_plan, vicinity),
          Reversed(ApplyUpDownStream(g, reverse_plan(), vicinity)));
  }
  return forward_plan;
}

}  // namespace disco
