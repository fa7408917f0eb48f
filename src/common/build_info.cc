#include "common/build_info.h"

// The CMake side defines these per-target on mfgcp_common; the fallbacks
// keep non-CMake builds (IDE indexers, single-file checks) compiling.
#ifndef MFGCP_BUILD_GIT_DESCRIBE
#define MFGCP_BUILD_GIT_DESCRIBE "unknown"
#endif
#ifndef MFGCP_BUILD_COMPILER
#define MFGCP_BUILD_COMPILER "unknown"
#endif
#ifndef MFGCP_BUILD_TYPE_NAME
#define MFGCP_BUILD_TYPE_NAME "unspecified"
#endif
#ifndef MFGCP_BUILD_OBS
#define MFGCP_BUILD_OBS 0
#endif

namespace mfg::common {

const BuildInfo& GetBuildInfo() {
  static const BuildInfo info = {
      MFGCP_BUILD_GIT_DESCRIBE,
      MFGCP_BUILD_COMPILER,
      MFGCP_BUILD_TYPE_NAME,
      MFGCP_BUILD_OBS != 0,
      true,  // The fault-injection seam is always built in.
      MFGCP_BATCH_CLONES != 0,
  };
  return info;
}

}  // namespace mfg::common
