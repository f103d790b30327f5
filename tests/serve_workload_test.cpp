// The serving layer's determinism contracts: workload streams are pure
// functions of (spec, graph, seed) and independent of everything else;
// histogram merging is exactly bucket addition, so merged counts are
// invariant under how samples were partitioned across threads; and
// ServeWorkload's deterministic outputs (served/failure tallies) are
// thread-count invariant even though its timings are not.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "graph/generators.h"
#include "obs/metrics.h"
#include "serve/latency_histogram.h"
#include "serve/workload.h"

namespace disco::serve {
namespace {

Graph TestGraph() { return ConnectedGnm(256, 1024, 11); }

WorkloadSpec SmallSpec() {
  WorkloadSpec spec;
  spec.streams = 8;
  spec.queries_per_stream = 100;
  spec.flash = true;
  spec.churn = true;
  return spec;
}

TEST(ServeWorkload, BuildIsDeterministic) {
  const Graph g = TestGraph();
  const Workload a = Workload::Build(SmallSpec(), g, 5);
  const Workload b = Workload::Build(SmallSpec(), g, 5);
  EXPECT_EQ(a.FingerprintHex(), b.FingerprintHex());
  EXPECT_EQ(a.DumpTsv(), b.DumpTsv());
  for (std::size_t s = 0; s < a.streams(); ++s) {
    const auto qa = a.Stream(s);
    const auto qb = b.Stream(s);
    ASSERT_EQ(qa.size(), qb.size());
    for (std::size_t i = 0; i < qa.size(); ++i) {
      EXPECT_EQ(qa[i].src, qb[i].src);
      EXPECT_EQ(qa[i].dst, qb[i].dst);
      EXPECT_EQ(qa[i].phase, qb[i].phase);
      EXPECT_EQ(qa[i].dst_departed, qb[i].dst_departed);
    }
  }
}

TEST(ServeWorkload, SeedChangesTheStream) {
  const Graph g = TestGraph();
  const Workload a = Workload::Build(SmallSpec(), g, 5);
  const Workload b = Workload::Build(SmallSpec(), g, 6);
  EXPECT_NE(a.FingerprintHex(), b.FingerprintHex());
}

TEST(ServeWorkload, PhaseScheduleAndShape) {
  const Graph g = TestGraph();
  const Workload w = Workload::Build(SmallSpec(), g, 5);
  ASSERT_EQ(w.phases().size(), 3u);
  EXPECT_EQ(w.phases()[0], PhaseKind::kSteady);
  EXPECT_EQ(w.phases()[1], PhaseKind::kFlash);
  EXPECT_EQ(w.phases()[2], PhaseKind::kChurn);
  EXPECT_EQ(w.queries_per_stream(), 300u);
  EXPECT_EQ(w.total_queries(), 8u * 300u);
  const auto stream = w.Stream(0);
  ASSERT_EQ(stream.size(), 300u);
  // Phases appear in schedule order, 100 queries each.
  for (std::size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(stream[i].phase, w.phases()[i / 100]);
  }
}

TEST(ServeWorkload, SourcesDifferFromDestinations) {
  const Graph g = TestGraph();
  const Workload w = Workload::Build(SmallSpec(), g, 5);
  for (std::size_t s = 0; s < w.streams(); ++s) {
    for (const Query& q : w.Stream(s)) {
      EXPECT_NE(q.src, q.dst);
      EXPECT_LT(q.src, g.num_nodes());
      EXPECT_LT(q.dst, g.num_nodes());
    }
  }
}

TEST(ServeWorkload, ZipfSkewsDestinations) {
  const Graph g = TestGraph();
  WorkloadSpec spec;
  spec.streams = 8;
  spec.queries_per_stream = 2000;
  spec.zipf = 0.99;
  const Workload w = Workload::Build(spec, g, 5);
  std::map<NodeId, std::size_t> hits;
  for (std::size_t s = 0; s < w.streams(); ++s) {
    for (const Query& q : w.Stream(s)) ++hits[q.dst];
  }
  std::size_t max_hits = 0;
  for (const auto& [dst, count] : hits) max_hits = std::max(max_hits, count);
  const double uniform_share =
      static_cast<double>(w.total_queries()) / g.num_nodes();
  // The head of a 0.99-skew Zipf over 256 destinations draws an order of
  // magnitude more than the uniform share.
  EXPECT_GT(static_cast<double>(max_hits), 8 * uniform_share);
}

TEST(ServeWorkload, ChurnMarksOnlyDepartedDestinationsInChurnPhase) {
  const Graph g = TestGraph();
  const Workload w = Workload::Build(SmallSpec(), g, 5);
  std::size_t departed_queries = 0;
  for (std::size_t s = 0; s < w.streams(); ++s) {
    for (const Query& q : w.Stream(s)) {
      if (q.phase != PhaseKind::kChurn) {
        EXPECT_FALSE(q.dst_departed);
      } else {
        EXPECT_EQ(q.dst_departed, w.departed(q.dst));
        departed_queries += q.dst_departed ? 1 : 0;
      }
    }
  }
  // 5% churn over 256 nodes leaves some departed destinations in a
  // 2,400-query churn phase (deterministic for this seed).
  EXPECT_GT(departed_queries, 0u);
}

TEST(ServeHistogram, QuantilesOfKnownSample) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.Record(v * 1000);  // 1..1000us
  EXPECT_EQ(h.count(), 1000u);
  // Log-linear buckets guarantee ~1.6% relative accuracy.
  EXPECT_NEAR(static_cast<double>(h.ValueAtQuantile(0.50)), 500e3,
              500e3 * 0.02);
  EXPECT_NEAR(static_cast<double>(h.ValueAtQuantile(0.99)), 990e3,
              990e3 * 0.02);
  EXPECT_NEAR(static_cast<double>(h.ValueAtQuantile(0.999)), 999e3,
              999e3 * 0.02);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 1000000u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 500500.0);
}

TEST(ServeHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(1);
  h.Record(63);
  EXPECT_EQ(h.ValueAtQuantile(0.0), 0u);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 63u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(ServeHistogram, MergeIsPartitionInvariant) {
  // The same 10,000 samples split across 1, 3, and 7 "threads" must merge
  // to identical counts, sums, and quantiles.
  std::vector<std::uint64_t> samples;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 10000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    samples.push_back(x % 5000000);
  }
  LatencyHistogram reference;
  for (const std::uint64_t v : samples) reference.Record(v);

  for (const std::size_t parts : {1u, 3u, 7u}) {
    std::vector<LatencyHistogram> shards(parts);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      shards[i % parts].Record(samples[i]);
    }
    LatencyHistogram merged;
    for (const LatencyHistogram& s : shards) merged.Merge(s);
    EXPECT_EQ(merged.count(), reference.count());
    EXPECT_EQ(merged.sum_ns(), reference.sum_ns());
    for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(merged.ValueAtQuantile(q), reference.ValueAtQuantile(q))
          << "q=" << q << " parts=" << parts;
    }
  }
}

TEST(ServeHistogram, SaturatesInsteadOfOverflowing) {
  LatencyHistogram h;
  h.Record(~0ull);  // absurd latency clamps into the last bucket
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.ValueAtQuantile(1.0), ~0ull);  // capped at the observed max
}

// A deterministic fake route function: fails for destinations divisible
// by 7, succeeds otherwise. Purity mirrors the RoutingScheme contract.
Route FakeRoute(NodeId s, NodeId t) {
  Route r;
  if (t % 7 == 0) return r;  // empty path = failure
  r.path = {s, t};
  r.length = 1.0;
  return r;
}

TEST(ServeServer, DeterministicTalliesAreThreadCountInvariant) {
  const Graph g = TestGraph();
  const Workload w = Workload::Build(SmallSpec(), g, 5);
  std::vector<std::vector<Query>> streams;
  for (std::size_t s = 0; s < w.streams(); ++s) {
    streams.push_back(w.Stream(s));
  }
  ServeResult reference;
  for (const int threads : {1, 2, 4, 8}) {
    ServeOptions opts;
    opts.threads = threads;
    const ServeResult r = ServeWorkload(FakeRoute, w, streams, opts);
    EXPECT_EQ(r.served, w.total_queries());
    EXPECT_EQ(r.latency.count() + [&] {
      std::uint64_t departed = 0;
      for (const auto& stream : streams) {
        for (const Query& q : stream) departed += q.dst_departed ? 1 : 0;
      }
      return departed;
    }(), r.served);
    if (threads == 1) {
      reference = r;
      EXPECT_GT(r.failures, 0u);
      continue;
    }
    EXPECT_EQ(r.served, reference.served);
    EXPECT_EQ(r.failures, reference.failures);
    EXPECT_EQ(r.stream_served, reference.stream_served);
    EXPECT_EQ(r.stream_failures, reference.stream_failures);
    EXPECT_EQ(r.latency.count(), reference.latency.count());
  }
  // The live registry series saw every query of the last run
  // (registration is idempotent, so these fetch ServeWorkload's series).
  obs::MetricsRegistry& reg = obs::Global();
  EXPECT_EQ(reg.RegisterCounter("disco_serve_queries_total", "", "", "")
                .Value(),
            w.total_queries());
  EXPECT_EQ(
      reg.RegisterCounter("disco_serve_query_failures_total", "", "", "")
          .Value(),
      reference.failures);
  EXPECT_EQ(reg.RegisterGauge("disco_serve_active_workers", "", "", "")
                .Value(),
            0);
  EXPECT_NE(reg.DumpText().find(
                "[metrics] serve: queries=" +
                std::to_string(w.total_queries()) +
                " failures=" + std::to_string(reference.failures) +
                " active_workers=0\n"),
            std::string::npos);
  EXPECT_NE(reg.PrometheusText().find(
                "# HELP disco_serve_query_failures_total Route queries that "
                "failed (empty path or departed destination)\n"),
            std::string::npos);
}

}  // namespace
}  // namespace disco::serve
