#ifndef MFGCP_COMMON_BUILD_INFO_H_
#define MFGCP_COMMON_BUILD_INFO_H_

// Build provenance baked in at configure time (src/CMakeLists.txt stamps
// the MFGCP_BUILD_* definitions on mfgcp_common). Surfaced as the
// `build.info` gauge family on the admin /metrics endpoint
// (obs/exporter.h) and stamped into BENCH_*.json context so
// scripts/compare_bench.py can tell which build produced a baseline.

// Whether the batched solver kernels carry runtime AVX2/AVX-512 clones
// (MFGCP_BATCH_TARGET_CLONES, numerics/simd_support.h): GCC on x86-64 only
// (target_clones + ifunc is a GCC/glibc mechanism), and never under
// ThreadSanitizer — TSan binaries with the ifunc clones have been seen to
// segfault at start-up, so a TSan tree builds the baseline loops.
// numerics/simd_support.h and BuildInfo::simd_enabled both read this.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define MFGCP_BATCH_CLONES 1
#else
#define MFGCP_BATCH_CLONES 0
#endif

namespace mfg::common {

struct BuildInfo {
  const char* git_describe;  // `git describe --always --dirty`, or "unknown".
  const char* compiler;      // e.g. "GNU 13.2.0".
  const char* build_type;    // CMAKE_BUILD_TYPE, or "unspecified".
  bool obs_enabled;          // MFGCP_OBS
  bool faults_enabled;       // Always true: the fault seam is built in.
  bool simd_enabled;         // MFGCP_BATCH_CLONES: runtime ISA clones.
};

// Static storage; the pointers stay valid for the process lifetime.
const BuildInfo& GetBuildInfo();

}  // namespace mfg::common

#endif  // MFGCP_COMMON_BUILD_INFO_H_
