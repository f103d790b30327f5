#include "api/sweep.h"

#include <algorithm>
#include <cstdio>

#include "api/registry.h"
#include "graph/generators.h"
#include "sim/campaign.h"
#include "sim/metrics.h"
#include "util/stats.h"

namespace disco::api {

std::vector<SweepCell> ExpandGrid(const SweepSpec& spec) {
  std::vector<SweepCell> grid;
  for (const std::string& topology : spec.topologies) {
    for (const NodeId n : spec.sizes) {
      for (const std::uint64_t seed : spec.seeds) {
        for (const std::string& scheme : spec.schemes) {
          for (const std::string& scenario : spec.scenarios) {
            SweepCell cell;
            cell.index = grid.size();
            cell.topology = topology;
            cell.n = n;
            cell.seed = seed;
            cell.scheme = scheme;
            cell.scenario = scenario;
            grid.push_back(std::move(cell));
          }
        }
      }
    }
  }
  return grid;
}

std::string SweepSignature(const SweepSpec& spec) {
  const auto join = [](const std::vector<std::string>& v) {
    std::string out;
    for (const std::string& s : v) {
      if (!out.empty()) out += ",";
      out += s;
    }
    return out;
  };
  std::string sizes, seeds;
  for (const NodeId n : spec.sizes) {
    if (!sizes.empty()) sizes += ",";
    sizes += std::to_string(n);
  }
  for (const std::uint64_t s : spec.seeds) {
    if (!seeds.empty()) seeds += ",";
    seeds += std::to_string(s);
  }
  char knobs[240];
  std::snprintf(knobs, sizeof knobs,
                " pairs=%zu gbits=%d lmf=%g vf=%g fingers=%d"
                " replicas=%zu scn=%zux%g@%g+%g%s",
                spec.pairs, spec.base.group_bits_offset,
                spec.base.landmark_prob_factor, spec.base.vicinity_factor,
                spec.base.fingers, spec.replicas,
                spec.scenario_base.events, spec.scenario_base.fraction,
                spec.scenario_base.start, spec.scenario_base.spacing,
                spec.scenario_base.heal ? "" : "-noheal");
  return "#spec topos=" + join(spec.topologies) + " sizes=" + sizes +
         " seeds=" + seeds + " schemes=" + join(spec.schemes) +
         " scenarios=" + join(spec.scenarios) + knobs + "\n";
}

std::string SweepHeader() {
  return "cell\ttopology\tn\tm\tseed\tscheme\tscenario\t"
         "stretch_first_mean\tstretch_first_p95\tstretch_first_max\t"
         "stretch_later_mean\tstretch_later_p95\tstretch_later_max\t"
         "failed_routes\tstate_mean\tstate_max\t"
         "conv_time_mean\tconv_time_sd\tdes_msgs_node_mean\t"
         "des_msgs_node_sd\tdes_table_stretch_mean\n";
}

std::string RunSweepCell(const SweepCell& cell, const SweepSpec& spec) {
  const Graph g = MakeTopology(cell.topology, cell.n, cell.seed);
  Params params = spec.base;
  params.seed = cell.seed;
  const auto scheme = MakeScheme(cell.scheme, g, params);
  if (!scheme || g.num_nodes() == 0) return "";

  scheme->PrewarmFor(scheme->AllNodes());

  const PairSample pairs = SamplePairs(g, spec.pairs, cell.seed);
  std::vector<StretchSample> first_details, later_details;
  const Summary later = Summarize(
      SampleStretch(pairs, scheme->route_fn(Phase::kLater), &later_details));
  // For schemes with no first-packet distinction both passes route the
  // same packets; reuse the later summary instead of routing them twice.
  const Summary first =
      scheme->distinguishes_first_packet()
          ? Summarize(SampleStretch(pairs, scheme->route_fn(Phase::kFirst),
                                    &first_details))
          : later;
  const Summary state = Summarize(scheme->CollectState());
  std::size_t failed = 0;
  for (const auto& d : first_details) failed += d.failed;
  for (const auto& d : later_details) failed += d.failed;

  // The dynamics axis: a non-null scenario runs a replicated DES campaign
  // of the scheme's protocol plane through the scripted disturbance.
  // Replicas run in-process — the cell itself is already an independent
  // executor task, and nested process pools must not spawn here.
  MeanSd conv, des_msgs, des_stretch;
  if (cell.scenario != "null") {
    CampaignSpec campaign;
    campaign.graph = &g;
    campaign.base.mode = PvModeForScheme(cell.scheme);
    campaign.base.params = params;
    campaign.scenario = spec.scenario_base;
    campaign.scenario.kind = cell.scenario;
    campaign.stretch_pairs = spec.pairs;
    std::vector<ReplicaResult> replicas;
    for (std::size_t r = 0; r < std::max<std::size_t>(1, spec.replicas);
         ++r) {
      replicas.push_back(RunReplica(campaign, r));
    }
    conv = ReduceConvergenceTime(replicas);
    des_msgs = ReduceMessagesPerNode(replicas);
    des_stretch = ReduceTableStretch(replicas);
  }

  char line[640];
  std::snprintf(line, sizeof line,
                "%zu\t%s\t%u\t%zu\t%llu\t%s\t%s\t"
                "%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%zu\t%.6g\t%.6g\t"
                "%.6g\t%.6g\t%.6g\t%.6g\t%.6g\n",
                cell.index, cell.topology.c_str(), g.num_nodes(),
                g.num_edges(),
                static_cast<unsigned long long>(cell.seed),
                cell.scheme.c_str(), cell.scenario.c_str(), first.mean,
                first.p95, first.max, later.mean, later.p95, later.max,
                failed, state.mean, state.max, conv.mean, conv.sd,
                des_msgs.mean, des_msgs.sd, des_stretch.mean);
  return line;
}

}  // namespace disco::api
