// Topology generators for every network family in the paper's evaluation
// (§5.1), plus the worst-case constructions used in proofs and tests.
//
// The two CAIDA Internet maps are not redistributable, so AsLevelInternet
// and RouterLevelInternet are synthetic stand-ins that reproduce the
// properties the evaluation actually exercises (heavy-tailed degrees with
// central hubs; two-level structure with longer paths). Real maps can be
// loaded with LoadEdgeList (graph/io.h) and dropped into any experiment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace disco {

/// G(n,m): n nodes, m uniform-random distinct edges, unit weights
/// (the paper uses m = 4n for average degree 8). May be disconnected;
/// see ConnectedGnm.
Graph Gnm(NodeId n, std::size_t m, std::uint64_t seed);

/// Largest connected component of G(n,m) (paper topology (3)).
Graph ConnectedGnm(NodeId n, std::size_t m, std::uint64_t seed);

/// Random geometric graph: n uniform points in the unit square, edges
/// between pairs within the radius that yields the target average degree,
/// edge weight = Euclidean distance (this is the latency-annotated topology
/// of the paper, (4)). May be disconnected; see ConnectedGeometric.
Graph RandomGeometric(NodeId n, double target_avg_degree, std::uint64_t seed);

/// Largest connected component of RandomGeometric.
Graph ConnectedGeometric(NodeId n, double target_avg_degree,
                         std::uint64_t seed);

/// Barabási–Albert preferential attachment: each new node attaches to
/// `m_per_node` existing nodes chosen proportionally to degree. Produces
/// the heavy-tailed, hub-dominated degree distribution of AS-level maps.
/// Always connected. Unit weights.
Graph BarabasiAlbert(NodeId n, int m_per_node, std::uint64_t seed);

/// Synthetic stand-in for the 30,610-node CAIDA AS-level map (paper
/// topology (1)): BarabasiAlbert(n, 2). Unit weights.
Graph AsLevelInternet(NodeId n, std::uint64_t seed);

/// Synthetic stand-in for the 192,244-node CAIDA router-level map (paper
/// topology (2)): a two-level construction — a preferential-attachment
/// PoP-level core whose supernodes are expanded into small router rings,
/// with inter-PoP links landing on random routers of each PoP. Gives
/// moderate hubs plus the longer paths characteristic of router-level maps
/// (which drive the explicit-route address sizes of §4.2). Unit weights.
Graph RouterLevelInternet(NodeId n, std::uint64_t seed);

/// The synthetic topology families of the evaluation, by the names runs
/// pass (--topo=, --topos=, sweep cells), in this order:
///   gnm     ConnectedGnm(n, 4n)          — G(n,m), average degree 8
///   geo     ConnectedGeometric(n, 8.0)   — latency-annotated geometric
///   as      AsLevelInternet(n)           — AS-level map stand-in
///   router  RouterLevelInternet(n)       — router-level map stand-in
const std::vector<std::string>& TopologyFamilies();

/// Builds one instance of `family` (one of TopologyFamilies()); returns an
/// empty graph for an unknown family.
Graph MakeTopology(const std::string& family, NodeId n, std::uint64_t seed);

/// Cycle of n nodes, unit weights (worst case for address length: the
/// explicit route l_v ; v can be Θ(sqrt(n~)) hops).
Graph Ring(NodeId n);

/// rows x cols grid, unit weights.
Graph Grid(NodeId rows, NodeId cols);

/// The footnote-6 tree of the paper: a root with `branching` children at
/// distance 1, each child with `branching` children at distance 2. With
/// branching = sqrt(n), S4's cluster at the root contains almost every
/// grandchild, i.e. Θ(n) entries — the worst case that breaks S4's state
/// bound while Disco's vicinities stay fixed.
Graph S4WorstCaseTree(NodeId branching);

}  // namespace disco
