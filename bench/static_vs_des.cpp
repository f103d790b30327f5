// §5.2 "Accuracy of static simulation": the large-topology results come
// from a static (converged-state) simulator; this bench cross-validates it
// against the discrete-event simulator on a 1,024-node G(n,m) graph.
//
// Paper result: static-vs-DES mean stretch differs by ≤0.9% for Disco's
// later packets and ≤0.7% for S4's. Our DES converges the same protocol
// the static simulator closes over, so we verify (a) landmark routes match
// exactly, (b) bounded vicinities overlap the ideal k-nearest sets almost
// everywhere, and (c) the later-packet stretch implied by DES tables is
// within a fraction of a percent of the static number.
//
// The DES side is a replicated campaign (sim/campaign.h): each replica is
// one executor task that simulates its own seeded DES (optionally through
// a --scenario disturbance schedule) and computes the three checks against
// the shared static scheme; the parent reduces them to mean ± stddev. With
// --replicas=1 and the null scenario the output is byte-identical to the
// pre-campaign bench, and --backend=procs to the in-process run.
#include "bench_common.h"

#include <cmath>
#include <cstdio>

#include "api/schemes.h"
#include "exec/wire.h"
#include "graph/shortest_path.h"
#include "sim/campaign.h"
#include "sim/metrics.h"
#include "sim/pv_sim.h"

namespace disco::bench {
namespace {

// What one replica's task ships back to the parent.
struct ReplicaChecks {
  std::uint64_t landmark_exact = 0;
  std::uint64_t landmark_checked = 0;
  std::uint64_t overlap = 0;
  std::uint64_t ideal_total = 0;
  double static_mean = 0;
  double des_mean = 0;
};

std::string EncodeChecks(const ReplicaChecks& c) {
  std::string out;
  exec::PutU64(&out, c.landmark_exact);
  exec::PutU64(&out, c.landmark_checked);
  exec::PutU64(&out, c.overlap);
  exec::PutU64(&out, c.ideal_total);
  exec::PutDouble(&out, c.static_mean);
  exec::PutDouble(&out, c.des_mean);
  return out;
}

bool DecodeChecks(const std::string& bytes, ReplicaChecks* c) {
  exec::WireReader r(bytes);
  return r.GetU64(&c->landmark_exact) && r.GetU64(&c->landmark_checked) &&
         r.GetU64(&c->overlap) && r.GetU64(&c->ideal_total) &&
         r.GetDouble(&c->static_mean) && r.GetDouble(&c->des_mean);
}

int Main(int argc, char** argv) {
  CampaignArgs campaign;
  const Args args =
      Args::Parse(argc, argv, CampaignArgs::Usage().c_str(),
                  [&](const std::string& arg) {
                    return campaign.Consume(arg);
                  });
  Banner("§5.2 — static simulator vs discrete-event simulator (gnm-1024)",
         "mean later-packet stretch difference under ~1%");
  const Graph g = MakeGnm(args, 1024);

  Params p;
  p.seed = args.seed;
  // The DES cross-check needs the protocol internals (landmarks,
  // vicinities, addresses), so it holds the concrete adapter rather than
  // going through the registry. Built before the executor Run call, so a
  // worker process replaying this code path derives the identical scheme.
  api::DiscoScheme scheme(g, p);
  Disco& disco = scheme.impl();
  const LandmarkSet& lms = disco.nd().landmarks();

  CampaignSpec spec;
  spec.graph = &g;
  spec.base.mode = PvMode::kNdDisco;
  spec.base.params = p;
  spec.base.landmarks = &lms;
  spec.scenario = campaign.scenario;

  // The static side of check (c) is the same for every replica: route the
  // sampled pairs once, here in set-up.
  std::vector<StretchSample> static_routes;
  SampleStretch(SamplePairs(g, args.SamplesOr(500), args.seed),
                [&](NodeId s, NodeId t) {
                  return disco.nd().RouteLater(s, t, Shortcut::kNone);
                },
                &static_routes);

  const exec::TaskFn task = [&](std::size_t replica) {
    PvResult des;
    RunReplica(spec, replica, &des);
    ReplicaChecks c;

    // (a) Landmark routes: exact agreement.
    for (NodeId v = 0; v < g.num_nodes(); v += 7) {
      const auto truth = Dijkstra(g, v);
      for (const NodeId l : lms.landmarks) {
        ++c.landmark_checked;
        const auto it = des.tables[v].find(l);
        if (it != des.tables[v].end() &&
            std::abs(it->second - truth.dist[l]) < 1e-9) {
          ++c.landmark_exact;
        }
      }
    }

    // (b) Vicinity overlap with the static simulator's ideal k-nearest.
    const std::size_t k = disco.nd().vicinity_size();
    for (NodeId v = 0; v < g.num_nodes(); v += 7) {
      const auto ideal = KNearest(g, v, k);
      c.ideal_total += ideal.size();
      for (const auto& m : ideal) {
        if (des.tables[v].count(m.node)) ++c.overlap;
      }
    }

    // (c) Later-packet stretch: static route lengths vs lengths implied
    // by the DES tables (d(s, l_t) from the DES landmark table + the
    // address).
    double des_sum = 0, static_sum = 0;
    std::size_t counted = 0;
    for (const auto& d : static_routes) {
      if (d.failed || d.shortest <= 0) continue;
      // DES view of the same route choice.
      double des_len;
      if (des.tables[d.t].count(d.s)) {
        des_len = des.tables[d.t].at(d.s);  // handshake: direct path
      } else {
        const NodeId lt = disco.nd().addresses().closest_landmark(d.t);
        const double to_lt = des.tables[d.s].count(lt)
                                 ? des.tables[d.s].at(lt)
                                 : kInfDist;
        des_len = to_lt + disco.nd().addresses().landmark_distance(d.t);
      }
      des_sum += des_len / d.shortest;
      static_sum += d.routed / d.shortest;
      ++counted;
    }
    c.des_mean = des_sum / static_cast<double>(counted);
    c.static_mean = static_sum / static_cast<double>(counted);
    return EncodeChecks(c);
  };

  const std::vector<std::string> raw = RunTasksOrDie(
      args, campaign.replicas, task, nullptr, [](std::size_t r) {
        return "replica " + std::to_string(r);
      });
  std::vector<ReplicaChecks> checks(raw.size());
  for (std::size_t r = 0; r < raw.size(); ++r) {
    if (!DecodeChecks(raw[r], &checks[r])) {
      std::fprintf(stderr, "malformed result for replica %zu\n", r);
      return 1;
    }
  }

  if (campaign.replicas == 1) {
    const ReplicaChecks& c = checks[0];
    std::printf("landmark routes exact: %zu/%zu\n",
                static_cast<std::size_t>(c.landmark_exact),
                static_cast<std::size_t>(c.landmark_checked));
    std::printf("vicinity overlap (DES vs static ideal): %.3f%%\n",
                100.0 * static_cast<double>(c.overlap) /
                    static_cast<double>(c.ideal_total));
    std::printf("mean later-packet stretch: static=%.4f  des=%.4f  "
                "difference=%.2f%%\n",
                c.static_mean, c.des_mean,
                100.0 * std::abs(c.des_mean - c.static_mean) /
                    c.static_mean);
    return 0;
  }

  // Replicated campaign: reduce each check to mean ± stddev.
  std::vector<double> exact_pct, overlap_pct, diff_pct;
  for (const ReplicaChecks& c : checks) {
    exact_pct.push_back(100.0 * static_cast<double>(c.landmark_exact) /
                        static_cast<double>(c.landmark_checked));
    overlap_pct.push_back(100.0 * static_cast<double>(c.overlap) /
                          static_cast<double>(c.ideal_total));
    diff_pct.push_back(100.0 * std::abs(c.des_mean - c.static_mean) /
                       c.static_mean);
  }
  const MeanSd exact = MeanStddev(exact_pct);
  const MeanSd overlap = MeanStddev(overlap_pct);
  const MeanSd diff = MeanStddev(diff_pct);
  std::printf("campaign: %zu replicas, scenario=%s\n", campaign.replicas,
              campaign.scenario.kind.c_str());
  std::printf("landmark routes exact: %.3f%% ± %.3f\n", exact.mean,
              exact.sd);
  std::printf("vicinity overlap (DES vs static ideal): %.3f%% ± %.3f\n",
              overlap.mean, overlap.sd);
  std::printf("mean later-packet stretch difference: %.2f%% ± %.2f\n",
              diff.mean, diff.sd);
  return 0;
}

}  // namespace
}  // namespace disco::bench

int main(int argc, char** argv) { return disco::bench::Main(argc, argv); }
