#include "serve/server.h"

#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace disco::serve {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace

ServeResult ServeWorkload(const RouteFn& route, const Workload& w,
                          const std::vector<std::vector<Query>>& streams,
                          const ServeOptions& opts) {
  ServeResult result;
  const std::size_t num_streams = w.streams();
  int threads = opts.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  if (static_cast<std::size_t>(threads) > num_streams) {
    threads = static_cast<int>(num_streams);
  }
  result.threads = threads;
  result.stream_served.assign(num_streams, 0);
  result.stream_failures.assign(num_streams, 0);

  // Live totals an observer (the [metrics] dump) can read mid-run; the
  // authoritative tallies are the per-stream ones below.
  obs::Counter& queries = obs::Global().RegisterCounter(
      "disco_serve_queries_total",
      "Route queries completed (success or failure)", "serve", "queries");
  obs::Counter& failures = obs::Global().RegisterCounter(
      "disco_serve_query_failures_total",
      "Route queries that failed (empty path or departed destination)",
      "serve", "failures");
  obs::Gauge& active_workers = obs::Global().RegisterGauge(
      "disco_serve_active_workers",
      "Serving threads currently inside their query loop", "serve",
      "active_workers");
  queries.Set(0);
  failures.Set(0);
  active_workers.Set(0);

  std::vector<LatencyHistogram> histograms(
      static_cast<std::size_t>(threads));

  const auto worker = [&](int t) {
    active_workers.Inc();
    DISCO_TRACE_SPAN("serve.workload");
    LatencyHistogram& hist = histograms[static_cast<std::size_t>(t)];
    for (std::size_t s = static_cast<std::size_t>(t); s < num_streams;
         s += static_cast<std::size_t>(threads)) {
      std::uint64_t served = 0;
      std::uint64_t failed = 0;
      for (const Query& q : streams[s]) {
        ++served;
        bool failure;
        if (q.dst_departed) {
          // A departed destination never reaches the route function: the
          // liveness check fails the query up front, deterministically.
          failure = true;
        } else {
          const Clock::time_point t0 = Clock::now();
          const Route r = route(q.src, q.dst);
          const Clock::time_point t1 = Clock::now();
          hist.Record(NsBetween(t0, t1));
          failure = !r.ok();
        }
        queries.Inc();
        if (failure) {
          ++failed;
          failures.Inc();
        }
      }
      result.stream_served[s] = served;
      result.stream_failures[s] = failed;
    }
    active_workers.Dec();
  };

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (std::thread& th : pool) th.join();
  const Clock::time_point end = Clock::now();

  for (const LatencyHistogram& h : histograms) result.latency.Merge(h);
  for (std::size_t s = 0; s < num_streams; ++s) {
    result.served += result.stream_served[s];
    result.failures += result.stream_failures[s];
  }
  result.wall_seconds =
      static_cast<double>(NsBetween(start, end)) * 1e-9;
  return result;
}

}  // namespace disco::serve
