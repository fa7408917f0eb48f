#ifndef MFGCP_NUMERICS_TRIDIAGONAL_H_
#define MFGCP_NUMERICS_TRIDIAGONAL_H_

#include <vector>

#include "common/status.h"

// Thomas-algorithm solver for tridiagonal linear systems, the kernel of
// FpkSolver1D's implicit (backward-Euler) stepping. Implicit FPK is not
// batched: the epoch path solves grid.implicit_fpk contents on the scalar
// learner.

namespace mfg::numerics {

// A tridiagonal system of dimension n:
//   lower[i] * x[i-1] + diag[i] * x[i] + upper[i] * x[i+1] = rhs[i]
// with lower[0] and upper[n-1] ignored.
struct TridiagonalSystem {
  std::vector<double> lower;
  std::vector<double> diag;
  std::vector<double> upper;
  std::vector<double> rhs;
};

// Scratch buffers for the forward-elimination pass. Reusing one workspace
// across solves keeps the implicit FPK stepping allocation-free after the
// first call.
struct TridiagonalWorkspace {
  std::vector<double> c_prime;
  std::vector<double> d_prime;
};

// Solves the system in O(n), writing the solution into `x` (resized to n;
// steady-state callers keep `x` at capacity so no allocation happens).
// Fails on inconsistent sizes or an (effectively) singular pivot. Stable for
// the diagonally dominant matrices produced by implicit FD schemes.
common::Status SolveTridiagonalInto(const TridiagonalSystem& system,
                                    TridiagonalWorkspace& workspace,
                                    std::vector<double>& x);

// Allocating convenience wrapper around SolveTridiagonalInto.
common::StatusOr<std::vector<double>> SolveTridiagonal(
    const TridiagonalSystem& system);

// Multiplies the tridiagonal matrix by x (for residual checks in tests).
common::StatusOr<std::vector<double>> TridiagonalApply(
    const TridiagonalSystem& system, const std::vector<double>& x);

}  // namespace mfg::numerics

#endif  // MFGCP_NUMERICS_TRIDIAGONAL_H_
