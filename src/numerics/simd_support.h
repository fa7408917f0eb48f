#ifndef MFGCP_NUMERICS_SIMD_SUPPORT_H_
#define MFGCP_NUMERICS_SIMD_SUPPORT_H_

#include <bit>
#include <cstdint>

#include "common/build_info.h"

// Runtime ISA dispatch for the auto-vectorized batch kernels. The project
// targets baseline x86-64 (SSE2, two doubles per vector); annotating a hot
// kernel with MFGCP_BATCH_TARGET_CLONES compiles it three times — baseline,
// AVX2 (four lanes), AVX-512F (eight lanes) — and GCC's ifunc resolver picks
// the widest one the CPU supports at load time. No -march flag, so the
// binary stays runnable on any x86-64. Whether a build carries the clones
// is decided once, by MFGCP_BATCH_CLONES in common/build_info.h; without
// them every kernel is the baseline loop.
//
// Bit-identity survives the wider clones for two reasons: the lane loops do
// element-wise IEEE arithmetic only (vector width never changes a result,
// lane l sees the same operation sequence at any width), and the top-level
// CMakeLists forces -ffp-contract=off project-wide so the AVX-512 clone —
// whose ISA embeds fused multiply-add — cannot contract a*b+c into one
// rounding where the scalar solvers round twice.
#if MFGCP_BATCH_CLONES
#define MFGCP_BATCH_TARGET_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define MFGCP_BATCH_TARGET_CLONES
#endif

// The lane-width dispatch every batched kernel shares: expands BODY(M)
// with M the compile-time lane count for the batch widths the kernels
// specialize (1, 2, 4, 8 and 16), and M = 0 (the runtime-width path)
// otherwise. Each kernel's body must be an always_inline template called
// from an MFGCP_BATCH_TARGET_CLONES dispatcher, so every ISA clone gets
// its own vectorized copy of each width.
#define MFGCP_DISPATCH_LANE_WIDTH(m, BODY) \
  switch (m) {                             \
    case 1:                                \
      BODY(1);                             \
      break;                               \
    case 2:                                \
      BODY(2);                             \
      break;                               \
    case 4:                                \
      BODY(4);                             \
      break;                               \
    case 8:                                \
      BODY(8);                             \
      break;                               \
    case 16:                               \
      BODY(16);                            \
      break;                               \
    default:                               \
      BODY(0);                             \
      break;                               \
  }

namespace mfg::numerics {

// Bit-exact masked-lane select: returns `a`'s bits when mask is nonzero
// (including NaN masks) and `b`'s bits untouched otherwise. The solvers'
// substep loops assign `field[k] = LaneSelect(update[l], updated, field[k])`
// instead of a ternary on the store: GCC classifies `x = c ? y : x` as a
// conditional store, which only the AVX-512 clone can vectorize (masked
// stores); the integer blend always stores, so every clone if-converts it
// to compare + and/or. Never multiply-by-mask — a NaN in the masked-out
// operand must not leak into the kept lane.
inline double LaneSelect(double mask, double a, double b) {
  const std::uint64_t keep_a = mask != 0.0 ? ~std::uint64_t{0} : 0;
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(a) & keep_a) |
                               (std::bit_cast<std::uint64_t>(b) & ~keep_a));
}

}  // namespace mfg::numerics

#endif  // MFGCP_NUMERICS_SIMD_SUPPORT_H_
