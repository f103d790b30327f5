#include "obs/trace.h"

#include <unistd.h>

#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/clock.h"
#include "obs/log.h"
#include "obs/tracefile.h"
#include "util/stats.h"

namespace disco {
namespace obs {

namespace internal {
std::atomic<bool> g_tracing_enabled{false};
}  // namespace internal

namespace {

constexpr std::size_t kDefaultCapacity = std::size_t{1} << 14;

struct Event {
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;
  char phase = 'B';
};

// One ring buffer per traced thread. The owning thread is the only
// writer; publication to the flushing thread is via the release store on
// `count` (the flusher loads it with acquire before reading slots).
// `rdepth` (recorded open spans) is owner-private bookkeeping for the
// reservation invariant: count + rdepth <= slots.size() at all times, so
// every recorded B has a guaranteed slot for its E.
struct ThreadBuffer {
  std::vector<Event> slots;
  std::atomic<std::size_t> count{0};
  std::atomic<std::uint64_t> dropped{0};
  std::size_t rdepth = 0;
  std::uint64_t tid = 0;

  void Push(const char* name, char phase, std::uint64_t ts_ns) {
    const std::size_t n = count.load(std::memory_order_acquire);  // own writes
    slots[n] = Event{name, ts_ns, phase};
    count.store(n + 1, std::memory_order_release);
  }
};

struct TraceState {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;  // tid order
  std::string base_path;
  std::size_t capacity = kDefaultCapacity;
  bool configured = false;
  bool worker = false;
  bool flushed = false;
  bool atexit_registered = false;
  std::vector<TraceDoc> worker_docs;  // queued by MergeWorkerTrace
  std::deque<std::string> interned;
};

TraceState& State() {
  static TraceState* s = new TraceState;
  return *s;
}

thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer* GetThreadBuffer() {
  if (t_buffer != nullptr) return t_buffer;
  TraceState& st = State();
  std::lock_guard<std::mutex> lock(st.mu);
  auto buf = std::make_unique<ThreadBuffer>();
  buf->slots.resize(st.capacity);
  buf->tid = st.buffers.size() + 1;  // registration order; 1-based
  t_buffer = buf.get();
  st.buffers.push_back(std::move(buf));
  return t_buffer;
}

void FlushTraceAtExit() { FlushTrace(); }

// Stops tracing and, on the first call after ConfigureTracing, moves this
// process's recorded events into *own and returns true. Writers stop
// before the buffers are read: events from threads still inside a Push
// are published (or not) by the release store on count, and partially
// started spans simply miss the trace. Caller holds st.mu.
bool TakeOwnEvents(TraceState& st, TraceDoc* own) {
  internal::g_tracing_enabled.store(false, std::memory_order_release);
  if (!st.configured || st.flushed) return false;
  st.flushed = true;
  const std::uint64_t pid = static_cast<std::uint64_t>(getpid());
  for (const auto& buf : st.buffers) {
    const std::size_t n = buf->count.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      const Event& e = buf->slots[i];
      own->events.push_back(
          TraceEvent{e.name, e.phase, e.ts_ns, pid, buf->tid});
    }
    own->dropped += buf->dropped.load(std::memory_order_acquire);
  }
  return true;
}

}  // namespace

namespace internal {

bool BeginSpan(const char* name) {
  ThreadBuffer* buf = GetThreadBuffer();
  // Reserve the matching E slot up front: admit this B only when both it
  // and its E fit alongside the E slots of already-open recorded spans.
  const std::size_t n = buf->count.load(std::memory_order_acquire);
  if (n + buf->rdepth + 2 > buf->slots.size()) {
    buf->dropped.fetch_add(1, std::memory_order_release);
    return false;
  }
  buf->Push(name, 'B', NowNs());
  ++buf->rdepth;
  return true;
}

void EndSpan(const char* name, bool recorded) {
  if (!recorded) return;  // the B was dropped; drop the E to stay balanced
  ThreadBuffer* buf = GetThreadBuffer();
  --buf->rdepth;
  // If tracing was disabled (flushed) while this span was open, skip the
  // write: the flushed file keeps an unclosed B, which validation allows,
  // and the buffer is no longer ours to publish into.
  if (!TracingEnabled()) return;
  buf->Push(name, 'E', NowNs());
}

void InstantEvent(const char* name) {
  ThreadBuffer* buf = GetThreadBuffer();
  const std::size_t n = buf->count.load(std::memory_order_acquire);
  if (n + buf->rdepth + 1 > buf->slots.size()) {
    buf->dropped.fetch_add(1, std::memory_order_release);
    return;
  }
  buf->Push(name, 'i', NowNs());
}

}  // namespace internal

void ConfigureTracing(const std::string& base_path,
                      std::size_t per_thread_capacity) {
  TraceState& st = State();
  {
    std::lock_guard<std::mutex> lock(st.mu);
    st.base_path = base_path;
    st.capacity =
        (per_thread_capacity == 0) ? kDefaultCapacity : per_thread_capacity;
    // Must hold at least one B+E pair or every Begin would drop.
    if (st.capacity < 2) st.capacity = 2;
    st.configured = true;
    st.flushed = false;
    // Threads registered before this call (e.g. across a test reset) get
    // the new budget; tracing is off during configure, so no owner thread
    // is writing.
    for (auto& buf : st.buffers) {
      if (buf->slots.size() != st.capacity) buf->slots.resize(st.capacity);
    }
    if (!st.atexit_registered) {
      st.atexit_registered = true;
      std::atexit(FlushTraceAtExit);
    }
  }
  internal::g_tracing_enabled.store(true, std::memory_order_release);
}

void MarkTraceWorker() {
  TraceState& st = State();
  std::lock_guard<std::mutex> lock(st.mu);
  st.worker = true;
}

void MergeWorkerTrace(const std::string& json) {
  if (json.empty()) return;
  TraceDoc doc;
  std::string error;
  if (!ParseTraceJson(json, &doc, &error)) {
    Log(LogLevel::kWarn, "[obs] bad worker trace: %s", error.c_str());
    return;
  }
  TraceState& st = State();
  std::lock_guard<std::mutex> lock(st.mu);
  st.worker_docs.push_back(std::move(doc));
}

std::uint64_t DroppedTraceEvents() {
  TraceState& st = State();
  std::lock_guard<std::mutex> lock(st.mu);
  std::uint64_t total = 0;
  for (const auto& buf : st.buffers) {
    total += buf->dropped.load(std::memory_order_acquire);
  }
  return total;
}

const char* InternName(const std::string& name) {
  TraceState& st = State();
  std::lock_guard<std::mutex> lock(st.mu);
  for (const std::string& existing : st.interned) {
    if (existing == name) return existing.c_str();
  }
  st.interned.push_back(name);
  return st.interned.back().c_str();
}

std::string FlushTrace() {
  TraceState& st = State();
  std::string path;
  std::vector<TraceDoc> docs(1);
  {
    std::lock_guard<std::mutex> lock(st.mu);
    if (!TakeOwnEvents(st, &docs[0]) || st.worker) return "";
    path = st.base_path;
    for (TraceDoc& doc : st.worker_docs) docs.push_back(std::move(doc));
    st.worker_docs.clear();
  }
  if (!WriteFile(path, TraceJson(MergeTraceDocs(docs)))) {
    Log(LogLevel::kWarn, "[obs] failed to write trace %s", path.c_str());
    return "";
  }
  return path;
}

std::string TakeWorkerTrace() {
  TraceState& st = State();
  TraceDoc own;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    if (!TakeOwnEvents(st, &own)) return "";
  }
  return TraceJson(own);
}

void ResetTracingForTest() {
  TraceState& st = State();
  internal::g_tracing_enabled.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(st.mu);
  st.base_path.clear();
  st.capacity = kDefaultCapacity;
  st.configured = false;
  st.worker = false;
  st.flushed = false;
  st.worker_docs.clear();
  for (auto& buf : st.buffers) {
    buf->count.store(0, std::memory_order_release);
    buf->dropped.store(0, std::memory_order_release);
    buf->rdepth = 0;
  }
}

}  // namespace obs
}  // namespace disco
