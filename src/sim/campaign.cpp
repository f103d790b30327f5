#include "sim/campaign.h"

#include <cmath>
#include <cstdio>

#include "exec/wire.h"
#include "graph/shortest_path.h"
#include "obs/trace.h"
#include "runtime/rng_stream.h"

namespace disco {
namespace {

// Salts the per-replica simulator-seed stream apart from the scenario
// compiler's (scenario.cpp) and every other TaskRng user's.
constexpr std::uint64_t kReplicaSalt = 0xca3b0059e11ca5efULL;

// Table stretch: sample up to `pairs` (source, origin) entries from the
// final tables, spreading sources so only a handful of Dijkstras run, and
// compare each entry's distance against the true original-graph distance.
void MeasureTableStretch(const Graph& g, const PvResult& sim,
                         std::size_t pairs, std::uint64_t seed,
                         std::size_t replica, ReplicaResult* out) {
  DISCO_TRACE_SPAN("sim.table_stretch");
  const NodeId n = g.num_nodes();
  if (n == 0 || pairs == 0) return;
  Rng rng = runtime::TaskRng(seed ^ kReplicaSalt, replica).Fork(1);
  const std::size_t num_sources =
      std::min<std::size_t>(std::max<std::size_t>(1, pairs / 8), n);
  double sum = 0;
  std::size_t covered = 0, sampled = 0;
  for (std::size_t si = 0; si < num_sources; ++si) {
    const NodeId s = static_cast<NodeId>(rng.NextBelow(n));
    const auto truth = Dijkstra(g, s);
    const std::size_t per_source = pairs / num_sources;
    for (std::size_t pi = 0; pi < per_source; ++pi) {
      const NodeId o = static_cast<NodeId>(rng.NextBelow(n));
      if (o == s) continue;
      ++sampled;
      const auto it = sim.tables[s].find(o);
      if (it == sim.tables[s].end()) continue;
      ++covered;
      if (truth.dist[o] > 0 && truth.dist[o] < kInfDist) {
        sum += it->second / truth.dist[o];
      }
    }
  }
  out->table_coverage =
      sampled == 0 ? 0
                   : static_cast<double>(covered) /
                         static_cast<double>(sampled);
  out->table_stretch =
      covered == 0 ? 0 : sum / static_cast<double>(covered);
}

}  // namespace

std::uint64_t ReplicaSeed(std::uint64_t seed, std::size_t replica) {
  if (replica == 0) return seed;
  return runtime::TaskRng(seed ^ kReplicaSalt, replica).Next();
}

std::string EncodeReplicaResult(const ReplicaResult& r) {
  std::string out;
  exec::PutDouble(&out, r.convergence_time);
  exec::PutU64(&out, r.total_messages);
  exec::PutDouble(&out, r.messages_per_node);
  exec::PutU64(&out, r.total_withdrawals);
  exec::PutDouble(&out, r.table_stretch);
  exec::PutDouble(&out, r.table_coverage);
  exec::PutU64(&out, r.trace.size());
  for (const PvTracePoint& pt : r.trace) {
    exec::PutDouble(&out, pt.time);
    exec::PutU64(&out, pt.messages);
    exec::PutU64(&out, pt.withdrawals);
    exec::PutU64(&out, pt.table_entries);
  }
  return out;
}

bool DecodeReplicaResult(const std::string& bytes, ReplicaResult* out) {
  exec::WireReader r(bytes);
  *out = ReplicaResult{};
  std::uint64_t count = 0;
  bool ok = r.GetDouble(&out->convergence_time) &&
            r.GetU64(&out->total_messages) &&
            r.GetDouble(&out->messages_per_node) &&
            r.GetU64(&out->total_withdrawals) &&
            r.GetDouble(&out->table_stretch) &&
            r.GetDouble(&out->table_coverage) && r.GetU64(&count);
  if (!ok || count > bytes.size() / 8) return false;
  out->trace.resize(static_cast<std::size_t>(count));
  for (PvTracePoint& pt : out->trace) {
    ok = r.GetDouble(&pt.time) && r.GetU64(&pt.messages) &&
         r.GetU64(&pt.withdrawals) && r.GetU64(&pt.table_entries) && ok;
  }
  return ok;
}

ReplicaResult RunReplica(const CampaignSpec& spec, std::size_t replica,
                         PvResult* full) {
  const Graph& g = *spec.graph;
  const std::uint64_t seed = spec.base.params.seed;
  const Scenario scenario =
      Scenario::Compile(spec.scenario, g, seed, replica);
  PvConfig cfg = spec.base;
  cfg.params.seed = ReplicaSeed(seed, replica);
  cfg.scenario = &scenario;
  const PvResult sim = SimulatePathVector(g, cfg);

  ReplicaResult out;
  out.convergence_time = sim.convergence_time;
  out.total_messages = sim.total_messages;
  out.messages_per_node = sim.messages_per_node;
  out.total_withdrawals = sim.total_withdrawals;
  out.trace = sim.trace;
  MeasureTableStretch(g, sim, spec.stretch_pairs, seed, replica, &out);
  if (full != nullptr) *full = sim;
  return out;
}

bool RunReplicas(const std::vector<CampaignSpec>& campaigns,
                 std::size_t replicas, const exec::ExecOptions& opts,
                 std::vector<std::vector<ReplicaResult>>* out,
                 std::string* error) {
  out->assign(campaigns.size(), {});
  if (campaigns.empty() || replicas == 0) return true;
  const auto executor = exec::MakeExecutor(opts);
  std::vector<std::string> raw;
  const exec::RunResult status = executor->Run(
      campaigns.size() * replicas,
      [&](std::size_t i) {
        return EncodeReplicaResult(
            RunReplica(campaigns[i / replicas], i % replicas));
      },
      &raw);
  if (!status.ok) {
    if (error != nullptr) *error = status.error;
    return false;
  }
  for (std::size_t c = 0; c < campaigns.size(); ++c) {
    (*out)[c].resize(replicas);
    for (std::size_t r = 0; r < replicas; ++r) {
      if (!DecodeReplicaResult(raw[c * replicas + r], &(*out)[c][r])) {
        if (error != nullptr) {
          *error = "malformed replica result (campaign " +
                   std::to_string(c) + ", replica " + std::to_string(r) +
                   ")";
        }
        return false;
      }
    }
  }
  return true;
}

MeanSd MeanStddev(const std::vector<double>& values) {
  MeanSd out;
  if (values.empty()) return out;
  double sum = 0;
  for (const double v : values) sum += v;
  out.mean = sum / static_cast<double>(values.size());
  double sq = 0;
  for (const double v : values) {
    sq += (v - out.mean) * (v - out.mean);
  }
  out.sd = std::sqrt(sq / static_cast<double>(values.size()));
  return out;
}

namespace {

MeanSd Reduce(const std::vector<ReplicaResult>& rs,
              double (*pick)(const ReplicaResult&)) {
  std::vector<double> values;
  values.reserve(rs.size());
  for (const ReplicaResult& r : rs) values.push_back(pick(r));
  return MeanStddev(values);
}

}  // namespace

MeanSd ReduceConvergenceTime(const std::vector<ReplicaResult>& rs) {
  return Reduce(rs, [](const ReplicaResult& r) {
    return r.convergence_time;
  });
}

MeanSd ReduceMessagesPerNode(const std::vector<ReplicaResult>& rs) {
  return Reduce(rs, [](const ReplicaResult& r) {
    return r.messages_per_node;
  });
}

MeanSd ReduceTableStretch(const std::vector<ReplicaResult>& rs) {
  return Reduce(rs, [](const ReplicaResult& r) { return r.table_stretch; });
}

std::string CampaignTsvHeader() {
  return "label\tscenario\treplicas\t"
         "conv_time_mean\tconv_time_sd\t"
         "msgs_per_node_mean\tmsgs_per_node_sd\t"
         "table_stretch_mean\ttable_stretch_sd\t"
         "withdrawals_mean\tcoverage_mean\n";
}

std::string CampaignTsvRow(const std::string& label,
                           const std::string& scenario_kind,
                           const std::vector<ReplicaResult>& rs) {
  const MeanSd conv = ReduceConvergenceTime(rs);
  const MeanSd msgs = ReduceMessagesPerNode(rs);
  const MeanSd stretch = ReduceTableStretch(rs);
  const MeanSd withdrawals = Reduce(rs, [](const ReplicaResult& r) {
    return static_cast<double>(r.total_withdrawals);
  });
  const MeanSd coverage =
      Reduce(rs, [](const ReplicaResult& r) { return r.table_coverage; });
  char line[320];
  std::snprintf(line, sizeof line,
                "%s\t%s\t%zu\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t"
                "%.6g\n",
                label.c_str(), scenario_kind.c_str(), rs.size(), conv.mean,
                conv.sd, msgs.mean, msgs.sd, stretch.mean, stretch.sd,
                withdrawals.mean, coverage.mean);
  return line;
}

PvMode PvModeForScheme(const std::string& scheme_name) {
  if (scheme_name == "disco" || scheme_name == "nddisco") {
    return PvMode::kNdDisco;
  }
  if (scheme_name == "s4") return PvMode::kS4;
  return PvMode::kPathVector;
}

}  // namespace disco
