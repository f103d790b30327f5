#include "obs/tracefile.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "util/json.h"
#include "util/parse_int.h"
#include "util/stats.h"

namespace disco {
namespace obs {

namespace {

// A JSON number as a uint64; false when it is negative, fractional or at
// least 2^64, where the cast would be undefined.
bool U64Of(double v, std::uint64_t* out) {
  if (!(v >= 0 && v < 18446744073709551616.0) || v != std::floor(v)) {
    return false;
  }
  *out = static_cast<std::uint64_t>(v);
  return true;
}

// Minimal JSON string escaping — span names are in-tree literals
// ("exec.task", "store.dijkstra"), but stay safe for arbitrary input.
std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ts in microseconds with exactly 3 decimals, rendered from integer
// nanoseconds — no floating point anywhere, so the bytes are stable.
void AppendTsMicros(std::string* out, std::uint64_t ts_ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03" PRIu64, ts_ns / 1000,
                ts_ns % 1000);
  *out += buf;
}

}  // namespace

std::string TraceJson(const TraceDoc& doc) {
  std::string out;
  out.reserve(doc.events.size() * 96 + 256);
  out += "{\"displayTimeUnit\":\"ms\",\n";
  char buf[48];
  std::snprintf(buf, sizeof buf, "%" PRIu64, doc.dropped);
  out += "\"otherData\":{\"droppedEvents\":\"";
  out += buf;
  out += "\"},\n\"traceEvents\":[";
  for (std::size_t i = 0; i < doc.events.size(); ++i) {
    const TraceEvent& e = doc.events[i];
    out += (i == 0) ? "\n" : ",\n";
    out += "{\"name\":\"";
    out += EscapeJson(e.name);
    out += "\",\"ph\":\"";
    out += e.phase;
    out += "\",\"ts\":";
    AppendTsMicros(&out, e.ts_ns);
    if (e.phase == 'i') out += ",\"s\":\"t\"";
    std::snprintf(buf, sizeof buf, ",\"pid\":%" PRIu64 ",\"tid\":%" PRIu64 "}",
                  e.pid, e.tid);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

bool ParseTraceJson(const std::string& text, TraceDoc* out,
                    std::string* error) {
  out->events.clear();
  out->dropped = 0;
  json::Value root;
  if (!json::Parse(text, &root, error)) return false;
  if (!root.is_object()) {
    *error = "top level is not an object";
    return false;
  }
  const json::Value* events = root.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    *error = "missing traceEvents array";
    return false;
  }
  const json::Value* other = root.Find("otherData");
  if (other != nullptr && other->is_object() &&
      !ParseInt(other->StringOr("droppedEvents", "0").c_str(),
                &out->dropped)) {
    *error = "otherData.droppedEvents is not an unsigned 64-bit integer";
    return false;
  }
  for (const json::Value& ev : events->Items()) {
    if (!ev.is_object()) {
      *error = "traceEvents entry is not an object";
      return false;
    }
    const std::string phase = ev.StringOr("ph", "");
    if (phase != "B" && phase != "E" && phase != "i") continue;
    TraceEvent e;
    e.name = ev.StringOr("name", "");
    e.phase = phase[0];
    const double ts_us = ev.NumberOr("ts", 0);
    e.ts_ns = (ts_us <= 0) ? 0
                           : static_cast<std::uint64_t>(
                                 std::llround(ts_us * 1000.0));
    if (!U64Of(ev.NumberOr("pid", 0), &e.pid) ||
        !U64Of(ev.NumberOr("tid", 0), &e.tid)) {
      *error = "traceEvents entry has a pid or tid that is not an "
               "unsigned 64-bit integer";
      return false;
    }
    out->events.push_back(std::move(e));
  }
  return true;
}

bool ValidateTrace(const TraceDoc& doc, std::string* error) {
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::string>>
      open;
  for (std::size_t i = 0; i < doc.events.size(); ++i) {
    const TraceEvent& e = doc.events[i];
    std::vector<std::string>& stack = open[{e.pid, e.tid}];
    if (e.phase == 'B') {
      stack.push_back(e.name);
    } else if (e.phase == 'E') {
      if (stack.empty()) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "event %zu: E \"%s\" on pid %" PRIu64 " tid %" PRIu64
                      " with no open span",
                      i, e.name.c_str(), e.pid, e.tid);
        *error = buf;
        return false;
      }
      if (stack.back() != e.name) {
        char buf[224];
        std::snprintf(buf, sizeof buf,
                      "event %zu: E \"%s\" does not match open span \"%s\" on "
                      "pid %" PRIu64 " tid %" PRIu64,
                      i, e.name.c_str(), stack.back().c_str(), e.pid, e.tid);
        *error = buf;
        return false;
      }
      stack.pop_back();
    }
    // 'i' needs no stack bookkeeping.
  }
  return true;
}

TraceDoc MergeTraceDocs(const std::vector<TraceDoc>& docs) {
  TraceDoc out;
  std::size_t total = 0;
  for (const TraceDoc& d : docs) total += d.events.size();
  out.events.reserve(total);
  for (const TraceDoc& d : docs) {
    out.dropped += d.dropped;
    out.events.insert(out.events.end(), d.events.begin(), d.events.end());
  }
  // Stable: ties keep input order, so each source doc's per-thread program
  // order survives (a thread's events are already time-ordered within it).
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

std::string SummarizeTrace(const TraceDoc& doc) {
  // Re-pair B/E per (pid,tid) stack; durations keyed by span name.
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::vector<std::pair<std::string, std::uint64_t>>>
      open;
  std::map<std::string, std::vector<double>> durations_ms;
  for (const TraceEvent& e : doc.events) {
    auto& stack = open[{e.pid, e.tid}];
    if (e.phase == 'B') {
      stack.emplace_back(e.name, e.ts_ns);
    } else if (e.phase == 'E') {
      if (!stack.empty() && stack.back().first == e.name) {
        const std::uint64_t begin_ns = stack.back().second;
        stack.pop_back();
        const std::uint64_t dur_ns = (e.ts_ns >= begin_ns) ? e.ts_ns - begin_ns
                                                           : 0;
        durations_ms[e.name].push_back(static_cast<double>(dur_ns) / 1e6);
      }
    } else if (e.phase == 'i') {
      durations_ms[e.name].push_back(0.0);  // instants count, zero duration
    }
  }
  std::string out = "span                             count   total_ms     p95_ms\n";
  char buf[160];
  for (auto& entry : durations_ms) {
    std::vector<double>& d = entry.second;
    std::sort(d.begin(), d.end());
    double total = 0;
    for (double v : d) total += v;
    const double p95 = d.empty() ? 0 : Percentile(d, 0.95);
    std::snprintf(buf, sizeof buf, "%-30s %7zu %10.3f %10.3f\n",
                  entry.first.c_str(), d.size(), total, p95);
    out += buf;
  }
  if (doc.dropped > 0) {
    std::snprintf(buf, sizeof buf, "dropped events: %" PRIu64 "\n",
                  doc.dropped);
    out += buf;
  }
  return out;
}

}  // namespace obs
}  // namespace disco
