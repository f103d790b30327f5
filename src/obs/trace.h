#ifndef DISCO_OBS_TRACE_H_
#define DISCO_OBS_TRACE_H_

// Span tracer: scoped spans recorded into per-thread bounded ring buffers,
// flushed at process exit to Chrome trace_event JSON (load the file in
// Perfetto / chrome://tracing) when a run passes --trace=<file>.
//
// Design constraints, in order:
//   * Determinism-neutral. Tracing writes only to the trace file; stdout
//     and TSV bytes are identical with tracing on or off. All wall-clock
//     reads live in obs/clock.{h,cpp}.
//   * Near-zero cost when off. The Span constructor is an inline load of
//     one atomic flag; nothing else runs until tracing is configured.
//   * No allocation on the hot path. Each thread's buffer is sized at
//     registration; overflow drops events and counts the drops (reported
//     as otherData.droppedEvents) instead of reallocating. A begin is only
//     recorded when its matching end still has a reserved slot, so
//     recorded begin/end events always balance.
//   * Cross-process merge without side files. A worker process (procs or
//     net backend) is marked by MarkTraceWorker() and never writes a trace
//     file: TakeWorkerTrace() hands its events, as trace JSON, to the kObs
//     goodbye frame it sends its coordinator, which queues them with
//     MergeWorkerTrace(); the coordinator's FlushTrace merges them into
//     the one file named by --trace=.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace disco {
namespace obs {

namespace internal {
// Off by default; flipped by ConfigureTracing, cleared by FlushTrace.
extern std::atomic<bool> g_tracing_enabled;
// Slow paths; only called while tracing is (or just was) enabled.
bool BeginSpan(const char* name);      // true if the B event was recorded
void EndSpan(const char* name, bool recorded);
void InstantEvent(const char* name);
}  // namespace internal

inline bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_acquire);
}

// Enables tracing. Events flush to `base_path` at exit (atexit) or on an
// explicit FlushTrace(). `per_thread_capacity` is the per-thread event
// budget (0 = default, 1<<14). Call once, before traced work starts.
void ConfigureTracing(const std::string& base_path,
                      std::size_t per_thread_capacity = 0);

// Declares this process a worker: its events leave only through
// TakeWorkerTrace, and FlushTrace (the atexit flush included) writes no
// file. Order-independent with ConfigureTracing.
void MarkTraceWorker();

// Flushes buffered events and disables tracing. Idempotent; returns the
// path written ("" when tracing was never configured, was already flushed,
// or this is a worker). Merges the traces queued by MergeWorkerTrace with
// this process's own events into one time-ordered timeline.
std::string FlushTrace();

// Stops tracing and returns this process's events as trace JSON — the
// first field of a worker's kObs goodbye. "" when tracing was never
// configured or was already flushed or taken.
std::string TakeWorkerTrace();

// Queues a worker's TakeWorkerTrace output for this process's FlushTrace
// merge. "" is ignored; unparseable JSON is logged and dropped.
void MergeWorkerTrace(const std::string& json);

// Total events dropped to ring-buffer overflow so far, across threads.
std::uint64_t DroppedTraceEvents();

// Copies a dynamic name (e.g. a scheme name) into storage that outlives
// all spans, so it can be used as a span name. Cheap for repeated calls
// with the same string; do not call on a per-event hot path.
const char* InternName(const std::string& name);

// Records an instant event (rendered as a point in the timeline).
inline void TracePoint(const char* name) {
  if (TracingEnabled()) internal::InstantEvent(name);
}

// Clears all tracer state (config, buffers, drop counts, queued worker
// traces, the worker mark) for tests. Existing threads keep their buffer
// registrations (and tids).
void ResetTracingForTest();

// RAII span. `name` must outlive the tracer (string literal or
// InternName result).
class Span {
 public:
  explicit Span(const char* name) {
    if (TracingEnabled()) {
      name_ = name;
      recorded_ = internal::BeginSpan(name);
      open_ = true;
    }
  }
  ~Span() {
    if (open_) internal::EndSpan(name_, recorded_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  bool open_ = false;      // Begin ran (tracing was enabled at entry)
  bool recorded_ = false;  // the B event made it into the buffer
};

#define DISCO_OBS_CONCAT2(a, b) a##b
#define DISCO_OBS_CONCAT(a, b) DISCO_OBS_CONCAT2(a, b)
#define DISCO_TRACE_SPAN(name) \
  ::disco::obs::Span DISCO_OBS_CONCAT(disco_trace_span_, __LINE__)(name)

}  // namespace obs
}  // namespace disco

#endif  // DISCO_OBS_TRACE_H_
