#include "numerics/tridiagonal.h"

#include <cmath>

namespace mfg::numerics {
namespace {

common::Status ValidateShape(const TridiagonalSystem& s) {
  const std::size_t n = s.diag.size();
  if (n == 0) {
    return common::Status::InvalidArgument("empty tridiagonal system");
  }
  if (s.lower.size() != n || s.upper.size() != n || s.rhs.size() != n) {
    return common::Status::InvalidArgument(
        "tridiagonal bands and rhs must all have the same length");
  }
  return common::Status::Ok();
}

}  // namespace

common::Status SolveTridiagonalInto(const TridiagonalSystem& system,
                                    TridiagonalWorkspace& workspace,
                                    std::vector<double>& x) {
  MFG_RETURN_IF_ERROR(ValidateShape(system));
  const std::size_t n = system.diag.size();

  std::vector<double>& c_prime = workspace.c_prime;
  std::vector<double>& d_prime = workspace.d_prime;
  c_prime.assign(n, 0.0);
  d_prime.assign(n, 0.0);

  double pivot = system.diag[0];
  if (std::fabs(pivot) < 1e-300) {
    return common::Status::NumericalError("singular pivot at row 0");
  }
  c_prime[0] = system.upper[0] / pivot;
  d_prime[0] = system.rhs[0] / pivot;

  for (std::size_t i = 1; i < n; ++i) {
    pivot = system.diag[i] - system.lower[i] * c_prime[i - 1];
    if (std::fabs(pivot) < 1e-300) {
      return common::Status::NumericalError("singular pivot at row " +
                                            std::to_string(i));
    }
    c_prime[i] = system.upper[i] / pivot;
    d_prime[i] = (system.rhs[i] - system.lower[i] * d_prime[i - 1]) / pivot;
  }

  x.resize(n);
  x[n - 1] = d_prime[n - 1];
  for (std::size_t i = n - 1; i-- > 0;) {
    x[i] = d_prime[i] - c_prime[i] * x[i + 1];
  }
  return common::Status::Ok();
}

common::StatusOr<std::vector<double>> SolveTridiagonal(
    const TridiagonalSystem& system) {
  TridiagonalWorkspace workspace;
  std::vector<double> x;
  MFG_RETURN_IF_ERROR(SolveTridiagonalInto(system, workspace, x));
  return x;
}

common::StatusOr<std::vector<double>> TridiagonalApply(
    const TridiagonalSystem& system, const std::vector<double>& x) {
  MFG_RETURN_IF_ERROR(ValidateShape(system));
  const std::size_t n = system.diag.size();
  if (x.size() != n) {
    return common::Status::InvalidArgument("x has wrong length");
  }
  std::vector<double> y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = system.diag[i] * x[i];
    if (i > 0) y[i] += system.lower[i] * x[i - 1];
    if (i + 1 < n) y[i] += system.upper[i] * x[i + 1];
  }
  return y;
}

}  // namespace mfg::numerics
