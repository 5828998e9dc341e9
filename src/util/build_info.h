#ifndef EGOCENSUS_UTIL_BUILD_INFO_H_
#define EGOCENSUS_UTIL_BUILD_INFO_H_

// Build identity of this binary: git revision and build type. Every build
// compiles metrics/tracing and the failpoints in (both inert until turned
// on at runtime), so the string keeps `obs=on failpoints=on` for clients
// that read the daemon's STATUS copy; `ecensus --version` and
// `ecensusd --version` print it.

#include <string>

namespace egocensus {

/// Structured build identity (each field also appears in the STATUS JSON).
struct BuildInfo {
  std::string git_describe;  // `git describe --always --dirty` at configure
  std::string build_type;    // CMAKE_BUILD_TYPE
};

/// The identity baked into this binary.
BuildInfo GetBuildInfo();

/// One-line rendering:
///   egocensus <git> (<build-type>; obs=on failpoints=on)
std::string BuildInfoString();

}  // namespace egocensus

#endif  // EGOCENSUS_UTIL_BUILD_INFO_H_
