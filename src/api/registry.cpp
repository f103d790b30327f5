#include "api/registry.h"

#include <memory>
#include <vector>

#include "api/schemes.h"

namespace disco::api {
namespace {

struct Entry {
  SchemeInfo info;
  std::unique_ptr<RoutingScheme> (*factory)(const Graph& g, const Params& p);
};

template <typename Scheme>
std::unique_ptr<RoutingScheme> Build(const Graph& g, const Params& p) {
  return std::make_unique<Scheme>(g, p);
}

// The five built-ins, in registration order.
const std::vector<Entry>& TheRegistry() {
  static const std::vector<Entry> entries = {
      {{"disco", "Disco", "Disco", true}, &Build<DiscoScheme>},
      {{"nddisco", "ND-Disco", "ND", true}, &Build<NdDiscoScheme>},
      {{"s4", "S4", "S4", true}, &Build<S4Scheme>},
      {{"vrr", "VRR", "VRR", false}, &Build<VrrScheme>},
      {{"spf", "Path-vector", "SPF", false}, &Build<SpfScheme>},
  };
  return entries;
}

}  // namespace

std::vector<std::string> RegisteredSchemes() {
  std::vector<std::string> names;
  for (const Entry& e : TheRegistry()) names.push_back(e.info.name);
  return names;
}

bool IsRegisteredScheme(const std::string& name) {
  return GetSchemeInfo(name) != nullptr;
}

const SchemeInfo* GetSchemeInfo(const std::string& name) {
  for (const Entry& e : TheRegistry()) {
    if (e.info.name == name) return &e.info;
  }
  return nullptr;
}

std::unique_ptr<RoutingScheme> MakeScheme(const std::string& name,
                                          const Graph& g,
                                          const Params& params) {
  for (const Entry& e : TheRegistry()) {
    if (e.info.name == name) return e.factory(g, params);
  }
  return nullptr;
}

std::vector<std::unique_ptr<RoutingScheme>> MakeSchemes(
    const std::vector<std::string>& names, const Graph& g,
    const Params& params) {
  // "disco" and "nddisco" are two views of one composite protocol; build
  // that composite once per batch.
  std::shared_ptr<Disco> shared_disco;
  const auto disco_of = [&] {
    if (!shared_disco) shared_disco = std::make_shared<Disco>(g, params);
    return shared_disco;
  };

  std::vector<std::unique_ptr<RoutingScheme>> out;
  for (const std::string& name : names) {
    std::unique_ptr<RoutingScheme> scheme;
    if (name == "disco") {
      scheme = std::make_unique<DiscoScheme>(disco_of());
    } else if (name == "nddisco") {
      scheme = std::make_unique<NdDiscoScheme>(disco_of());
    } else {
      scheme = MakeScheme(name, g, params);
    }
    if (!scheme) return {};
    out.push_back(std::move(scheme));
  }
  return out;
}

std::vector<std::string> SplitSchemeList(const std::string& csv) {
  std::vector<std::string> out;
  std::string::size_type start = 0;
  while (start <= csv.size()) {
    const auto comma = csv.find(',', start);
    const auto end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace disco::api
