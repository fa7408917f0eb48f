#include "common/math_util.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace mfg::common {

double Clamp(double x, double lo, double hi) {
  MFG_DCHECK_LE(lo, hi);
  return std::min(std::max(x, lo), hi);
}

bool AlmostEqual(double a, double b, double atol, double rtol) {
  const double diff = std::fabs(a - b);
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return diff <= atol + rtol * scale;
}

double Lerp(double a, double b, double t) { return a + (b - a) * t; }

std::vector<double> Linspace(double lo, double hi, std::size_t n) {
  MFG_CHECK_GE(n, 2u);
  std::vector<double> out(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lo + step * static_cast<double>(i);
  }
  out.back() = hi;  // Guard against accumulated rounding.
  return out;
}

double Mean(const std::vector<double>& v) {
  MFG_CHECK(!v.empty());
  return Sum(v) / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  MFG_CHECK_GE(v.size(), 2u);
  const double mean = Mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - mean) * (x - mean);
  return acc / static_cast<double>(v.size() - 1);
}

double MaxAbsDiff(std::span<const double> a, std::span<const double> b) {
  MFG_CHECK_EQ(a.size(), b.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i] - b[i]));
  }
  return max_diff;
}

double Sum(const std::vector<double>& v) {
  // Kahan summation: grid densities sum ~1e4 terms and downstream code
  // checks mass conservation to 1e-9.
  double sum = 0.0;
  double compensation = 0.0;
  for (double x : v) {
    double y = x - compensation;
    double t = sum + y;
    compensation = (t - sum) - y;
    sum = t;
  }
  return sum;
}

bool AllFinite(std::span<const double> v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

}  // namespace mfg::common
