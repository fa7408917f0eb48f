#ifndef MFGCP_COMMON_MATH_UTIL_H_
#define MFGCP_COMMON_MATH_UTIL_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

// Small numeric helpers shared across the library.

namespace mfg::common {

// Clamps x into [lo, hi]. Requires lo <= hi.
double Clamp(double x, double lo, double hi);

// The paper's [x]^+ projection onto [0, 1] used in Theorem 1. Inline so
// the batched HJB substep loop stays call-free.
inline double ClampUnit(double x) { return std::min(std::max(x, 0.0), 1.0); }

// True if |a - b| <= atol + rtol * max(|a|, |b|).
bool AlmostEqual(double a, double b, double atol = 1e-12, double rtol = 1e-9);

// Linear interpolation between a (t = 0) and b (t = 1).
double Lerp(double a, double b, double t);

// n evenly spaced values from lo to hi inclusive. Requires n >= 2.
std::vector<double> Linspace(double lo, double hi, std::size_t n);

// Arithmetic mean. Requires non-empty input.
double Mean(const std::vector<double>& v);

// Unbiased sample variance (n-1 denominator). Requires size >= 2.
double Variance(const std::vector<double>& v);

// Max absolute difference between two equal-length sequences. The span
// overload covers vectors and TimeField2D rows alike; the initializer_list
// one keeps brace-initialized call sites compiling.
double MaxAbsDiff(std::span<const double> a, std::span<const double> b);
inline double MaxAbsDiff(std::initializer_list<double> a,
                         std::initializer_list<double> b) {
  return MaxAbsDiff(std::span<const double>(a.begin(), a.size()),
                    std::span<const double>(b.begin(), b.size()));
}

// Sum of elements (Kahan-compensated; densities need the extra digits).
double Sum(const std::vector<double>& v);

// True if every element is finite (no NaN/Inf).
bool AllFinite(std::span<const double> v);
inline bool AllFinite(std::initializer_list<double> v) {
  return AllFinite(std::span<const double>(v.begin(), v.size()));
}

// x^2; spelled out for readability in cost formulas.
inline double Square(double x) { return x * x; }

}  // namespace mfg::common

#endif  // MFGCP_COMMON_MATH_UTIL_H_
