// Fig. 8: mean control messages per node until convergence, as a function
// of network size, for path vector, S4, NDDisco, and Disco with 1 and 3
// dissemination fingers, on G(n,m) graphs of increasing size.
//
// Paper result: path vector grows linearly in n (it was extrapolated beyond
// 512 nodes there; our simulator runs it directly); S4 and NDDisco grow as
// ~sqrt(n log n) with NDDisco slightly above S4 (larger vicinities); Disco
// adds only a small increment over NDDisco for flat-name dissemination,
// with 3 fingers marginally above 1.
//
// The DES runs are a campaign on the execution layer: every (size, series)
// pair is one CampaignSpec and all (campaign × replica) simulations fan
// across the --backend executor in a single Run call, so
// --replicas=8 --backend=procs is byte-identical to the threads run. With
// --replicas=1 and the default null scenario the output is byte-identical
// to the pre-campaign bench; --scenario=churn etc. adds re-convergence
// messaging (withdrawal cascades and triggered updates) to the counts and
// writes the reduced mean ± stddev campaign table.
#include "bench_common.h"

#include <cstdio>
#include <deque>

#include "api/schemes.h"
#include "graph/generators.h"
#include "sim/campaign.h"
#include "sim/disco_msg.h"
#include "sim/pv_sim.h"

namespace disco::bench {
namespace {

// Convergence messaging per DES protocol mode, in figure order (the
// printed/TSV headers below follow this order).
const PvMode kDesSeries[] = {PvMode::kPathVector, PvMode::kS4,
                             PvMode::kNdDisco};
const char* const kSeriesLabel[] = {"pv", "s4", "nddisco"};

int Main(int argc, char** argv) {
  CampaignArgs campaign;
  const Args args =
      Args::Parse(argc, argv, CampaignArgs::Usage().c_str(),
                  [&](const std::string& arg) {
                    return campaign.Consume(arg);
                  });
  Banner("Fig. 8 — messages/node until convergence vs network size",
         "PV linear; S4 < NDDisco (both ~sqrt-scale); Disco = NDDisco + "
         "small overlay increment (3 fingers slightly above 1)");

  std::vector<NodeId> sizes = {128, 256, 384, 512, 768, 1024};
  if (args.quick) sizes = {128, 256};
  if (args.n != 0) sizes = {args.n};

  // One campaign per (size, series); graphs live in a deque so the specs'
  // pointers stay stable. A worker process replays this same loop before
  // serving its task, so it derives identical campaigns from argv.
  std::deque<Graph> graphs;
  std::vector<CampaignSpec> campaigns;
  for (const NodeId n : sizes) {
    graphs.push_back(MakeTopology("gnm", n, args.seed));
    for (const PvMode mode : kDesSeries) {
      CampaignSpec spec;
      spec.graph = &graphs.back();
      spec.base.mode = mode;
      spec.base.params.seed = args.seed;
      spec.scenario = campaign.scenario;
      campaigns.push_back(spec);
    }
  }

  std::vector<std::vector<ReplicaResult>> results;
  std::string error;
  if (!RunReplicas(campaigns, campaign.replicas, args.MakeExecOptions(),
                   &results, &error)) {
    std::fprintf(stderr, "campaign execution failed: %s\n", error.c_str());
    return 1;
  }

  const bool reduced = campaign.replicas > 1;
  if (reduced) {
    std::printf("campaign: %zu replicas, scenario=%s (mean over replicas; "
                "sd in the campaign TSV)\n",
                campaign.replicas, campaign.scenario.kind.c_str());
  }
  std::printf("%-8s %-14s %-14s %-14s %-16s %-16s\n", "n", "Path-vector",
              "S4", "ND-Disco", "Disco-1-Finger", "Disco-3-Finger");
  std::string tsv = reduced ? "n\tpv\tpv_sd\ts4\ts4_sd\tnddisco\t"
                              "nddisco_sd\tdisco1\tdisco3\n"
                            : "n\tpv\ts4\tnddisco\tdisco1\tdisco3\n";
  std::string campaign_tsv = CampaignTsvHeader();
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const Graph& g = graphs[si];

    MeanSd des_msgs[3];
    for (int i = 0; i < 3; ++i) {
      const auto& replicas = results[si * 3 + i];
      des_msgs[i] = ReduceMessagesPerNode(replicas);
      char label[64];
      std::snprintf(label, sizeof label, "%s-%u", kSeriesLabel[i],
                    g.num_nodes());
      campaign_tsv +=
          CampaignTsvRow(label, campaign.scenario.kind, replicas);
    }
    const double nd_msgs = des_msgs[2].mean;

    // Disco = NDDisco convergence + overlay joining/dissemination, costed
    // in underlay link messages.
    double disco_msgs[2] = {0, 0};
    const int finger_counts[2] = {1, 3};
    for (int i = 0; i < 2; ++i) {
      Params p = args.MakeParams();
      p.fingers = finger_counts[i];
      api::DiscoScheme scheme(g, p);
      const auto overlay = MeasureOverlayMessaging(g, scheme.impl());
      disco_msgs[i] = nd_msgs + static_cast<double>(overlay.total()) /
                                    static_cast<double>(g.num_nodes());
    }

    std::printf("%-8u %-14.1f %-14.1f %-14.1f %-16.1f %-16.1f\n",
                g.num_nodes(), des_msgs[0].mean, des_msgs[1].mean, nd_msgs,
                disco_msgs[0], disco_msgs[1]);
    char line[384];
    if (reduced) {
      std::snprintf(line, sizeof line,
                    "%u\t%f\t%f\t%f\t%f\t%f\t%f\t%f\t%f\n", g.num_nodes(),
                    des_msgs[0].mean, des_msgs[0].sd, des_msgs[1].mean,
                    des_msgs[1].sd, des_msgs[2].mean, des_msgs[2].sd,
                    disco_msgs[0], disco_msgs[1]);
    } else {
      std::snprintf(line, sizeof line, "%u\t%f\t%f\t%f\t%f\t%f\n",
                    g.num_nodes(), des_msgs[0].mean, des_msgs[1].mean,
                    nd_msgs, disco_msgs[0], disco_msgs[1]);
    }
    tsv += line;
  }
  WriteFileOrWarn(args.OutPath("fig08_convergence.tsv"), tsv);
  // The reduced campaign table (per-size, per-series mean ± stddev rows)
  // only exists for real campaigns; default runs write exactly the
  // pre-campaign file set.
  if (campaign.active()) {
    WriteFileOrWarn(args.OutPath("fig08_campaign.tsv"), campaign_tsv);
  }
  return 0;
}

}  // namespace
}  // namespace disco::bench

int main(int argc, char** argv) { return disco::bench::Main(argc, argv); }
