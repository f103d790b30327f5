// String-keyed factory over the RoutingScheme adapters: protocols become
// data ("disco,s4,vrr" on a command line), not code. The registry is a
// fixed table of the five built-in schemes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/routing_scheme.h"

namespace disco::api {

/// Metadata for `name`, or nullptr if unregistered. The pointer stays
/// valid for the process lifetime.
const SchemeInfo* GetSchemeInfo(const std::string& name);

/// Registered keys in registration order:
/// disco, nddisco, s4, vrr, spf.
std::vector<std::string> RegisteredSchemes();

bool IsRegisteredScheme(const std::string& name);

/// Builds one converged scheme instance. Returns nullptr for an unknown
/// name (callers print RegisteredSchemes() in their usage message).
std::unique_ptr<RoutingScheme> MakeScheme(const std::string& name,
                                          const Graph& g,
                                          const Params& params);

/// Builds one instance per name, in order. Unlike per-name MakeScheme
/// calls, a batch containing both "disco" and "nddisco" shares a single
/// underlying Disco (same results — every scheme is a pure function of
/// (graph, params) — but the landmark/vicinity work is done once).
/// Returns an empty vector if any name is unknown.
std::vector<std::unique_ptr<RoutingScheme>> MakeSchemes(
    const std::vector<std::string>& names, const Graph& g,
    const Params& params);

/// Splits "disco,s4,vrr" into {"disco","s4","vrr"} (empty pieces dropped).
/// Does not validate against the registry.
std::vector<std::string> SplitSchemeList(const std::string& csv);

}  // namespace disco::api
