#include "util/build_info.h"

// Configure-time identity, injected per-source-file by src/CMakeLists.txt
// so only this translation unit recompiles when the revision changes.
#ifndef EGOCENSUS_GIT_DESCRIBE
#define EGOCENSUS_GIT_DESCRIBE "unknown"
#endif
#ifndef EGOCENSUS_BUILD_TYPE
#define EGOCENSUS_BUILD_TYPE "unknown"
#endif

namespace egocensus {

BuildInfo GetBuildInfo() {
  BuildInfo info;
  info.git_describe = EGOCENSUS_GIT_DESCRIBE;
  info.build_type = EGOCENSUS_BUILD_TYPE;
  return info;
}

std::string BuildInfoString() {
  BuildInfo info = GetBuildInfo();
  return "egocensus " + info.git_describe + " (" + info.build_type +
         "; obs=on failpoints=on)";
}

}  // namespace egocensus
