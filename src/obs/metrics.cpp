// disco-lint: allow-file(relaxed-atomic): metric bumps are commutative counter
// accumulation; every reader (PrometheusText/DumpText) runs after the
// workload's thread joins, which order the final loads.
#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>

#include "util/parse_int.h"

namespace disco {
namespace obs {

void Counter::Add(std::uint64_t n) {
  value_.fetch_add(n, std::memory_order_relaxed);
}
void Counter::Set(std::uint64_t v) {
  value_.store(v, std::memory_order_relaxed);
}
std::uint64_t Counter::Value() const {
  return value_.load(std::memory_order_relaxed);
}

void Gauge::Add(std::int64_t n) {
  value_.fetch_add(n, std::memory_order_relaxed);
}
void Gauge::Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
std::int64_t Gauge::Value() const {
  return value_.load(std::memory_order_relaxed);
}

namespace {

// Renders the exposition name: name or name{k="v",k2="v2"} with label keys
// in the given order and values backslash-escaped per the Prometheus text
// format.
std::string ExpositionName(const std::string& name, const LabelSet& labels) {
  if (labels.empty()) return name;
  std::string out = name;
  out += '{';
  bool first = true;
  for (const auto& kv : labels) {
    if (!first) out += ',';
    first = false;
    out += kv.first;
    out += "=\"";
    for (char c : kv.second) {
      if (c == '\\' || c == '"') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

struct MetricsRegistry::Impl {
  enum class Kind { kCounter, kGauge };

  struct Series {
    Kind kind = Kind::kCounter;
    std::string family;      // Prometheus family name
    std::string exposition;  // family + rendered labels
    std::string help;
    std::string group;  // "[metrics] <group>:" dump line
    std::string key;    // key=value on that line
    Counter counter;
    Gauge gauge;
  };

  mutable std::mutex mu;
  std::deque<Series> series;  // stable storage, registration order
  std::map<std::string, Series*> by_exposition;
  // Dump layout: groups in first-registration order, each listing its
  // series (also in registration order).
  std::vector<std::string> group_order;
  std::map<std::string, std::vector<Series*>> groups;

  Series& FindOrCreate(Kind kind, const std::string& name,
                       const std::string& help, const std::string& group,
                       const std::string& key, const LabelSet& labels) {
    std::lock_guard<std::mutex> lock(mu);
    const std::string expo = ExpositionName(name, labels);
    auto it = by_exposition.find(expo);
    if (it != by_exposition.end()) return *it->second;
    series.emplace_back();
    Series& s = series.back();
    s.kind = kind;
    s.family = name;
    s.exposition = expo;
    s.help = help;
    s.group = group;
    s.key = key;
    by_exposition[expo] = &s;
    auto g = groups.find(group);
    if (g == groups.end()) {
      group_order.push_back(group);
      g = groups.emplace(group, std::vector<Series*>{}).first;
    }
    g->second.push_back(&s);
    return s;
  }
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}
MetricsRegistry::~MetricsRegistry() { delete impl_; }

Counter& MetricsRegistry::RegisterCounter(const std::string& name,
                                          const std::string& help,
                                          const std::string& group,
                                          const std::string& key,
                                          const LabelSet& labels) {
  return impl_->FindOrCreate(Impl::Kind::kCounter, name, help, group, key,
                             labels)
      .counter;
}

Gauge& MetricsRegistry::RegisterGauge(const std::string& name,
                                      const std::string& help,
                                      const std::string& group,
                                      const std::string& key,
                                      const LabelSet& labels) {
  return impl_->FindOrCreate(Impl::Kind::kGauge, name, help, group, key, labels)
      .gauge;
}

std::string MetricsRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  // family -> (exposition -> series), both lexicographically sorted so the
  // output is byte-stable regardless of registration order.
  std::map<std::string, std::map<std::string, const Impl::Series*>> families;
  for (const auto& s : impl_->series) families[s.family][s.exposition] = &s;
  std::string out;
  char buf[64];
  for (const auto& fam : families) {
    const Impl::Series* first = fam.second.begin()->second;
    out += "# HELP " + fam.first + " " + first->help + "\n";
    out += "# TYPE " + fam.first + " ";
    out += (first->kind == Impl::Kind::kCounter) ? "counter" : "gauge";
    out += "\n";
    for (const auto& entry : fam.second) {
      const Impl::Series* s = entry.second;
      if (s->kind == Impl::Kind::kCounter) {
        std::snprintf(buf, sizeof buf, "%" PRIu64,
                      static_cast<std::uint64_t>(s->counter.Value()));
      } else {
        std::snprintf(buf, sizeof buf, "%" PRId64,
                      static_cast<std::int64_t>(s->gauge.Value()));
      }
      out += entry.first;
      out += ' ';
      out += buf;
      out += '\n';
    }
  }
  return out;
}

std::string MetricsRegistry::DumpText(const std::string& note) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::string out;
  char buf[64];
  for (const std::string& group : impl_->group_order) {
    out += "[metrics] " + group + ":";
    for (const Impl::Series* s : impl_->groups.at(group)) {
      if (s->kind == Impl::Kind::kCounter) {
        std::snprintf(buf, sizeof buf, "%" PRIu64,
                      static_cast<std::uint64_t>(s->counter.Value()));
      } else {
        std::snprintf(buf, sizeof buf, "%" PRId64,
                      static_cast<std::int64_t>(s->gauge.Value()));
      }
      out += ' ';
      out += s->key;
      out += '=';
      out += buf;
    }
    if (!note.empty()) out += " (" + note + ")";
    out += '\n';
  }
  return out;
}

std::size_t MetricsRegistry::MergeFromPrometheusText(const std::string& text) {
  std::size_t merged = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // "<exposition_name> <value>" — split on the last space so label
    // values containing spaces survive.
    const std::size_t sp = line.find_last_of(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) continue;
    const std::string expo = line.substr(0, sp);
    const std::string value_str = line.substr(sp + 1);
    // Only plain unsigned integers that fit 64 bits merge (counters);
    // negative, out-of-range or exotic samples are skipped.
    std::uint64_t value = 0;
    if (!ParseInt(value_str.c_str(), &value)) continue;
    Impl::Series* s = nullptr;
    {
      std::lock_guard<std::mutex> lock(impl_->mu);
      auto it = impl_->by_exposition.find(expo);
      if (it != impl_->by_exposition.end()) s = it->second;
    }
    if (s == nullptr || s->kind != Impl::Kind::kCounter) continue;
    s->counter.Add(value);
    ++merged;
  }
  return merged;
}

MetricsRegistry& Global() {
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

}  // namespace obs
}  // namespace disco
