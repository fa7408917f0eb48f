#ifndef MFGCP_PERFBENCH_BENCH_UTIL_H_
#define MFGCP_PERFBENCH_BENCH_UTIL_H_

// Small pure helpers of the benchmark binary, kept header-only so the
// self-tests (selftest.cc) exercise exactly the code the benchmark runs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace mfg::perfbench {

// Linear-interpolation percentile (p in [0, 100]) of `samples`, the
// "inclusive" definition: rank p/100·(n−1) between the sorted order
// statistics. 0 for an empty sample. Copies, so callers keep their order.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

inline constexpr std::uint64_t kDigestSeed = 14695981039346656037ull;

// FNV-1a 64 over 64-bit words (one xor-multiply per word rather than per
// byte, so digesting a whole epoch's policy surfaces stays well under a
// millisecond), chained through `seed` so a digest folds several buffers
// in order. Bit-exact: two surfaces digest equal only if every double has
// the same bit pattern.
inline std::uint64_t DigestValue(std::uint64_t value, std::uint64_t seed) {
  return (seed ^ value) * 1099511628211ull;
}

inline std::uint64_t DigestDoubles(std::span<const double> values,
                                   std::uint64_t seed) {
  std::uint64_t h = seed;
  for (double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = DigestValue(bits, h);
  }
  return h;
}

}  // namespace mfg::perfbench

#endif  // MFGCP_PERFBENCH_BENCH_UTIL_H_
