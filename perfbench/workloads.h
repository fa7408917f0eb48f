#ifndef MFGCP_PERFBENCH_WORKLOADS_H_
#define MFGCP_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mfg::perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  // Traced pass: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  std::string trace_out;  // Chrome-trace JSON of the recorded spans.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  std::vector<std::string> check_failures;  // Empty = outputs correct.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Per-layer metrics that do not apply to this workload read 0; each
  // gets a note saying why.
  std::vector<std::string> notes;
};

// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// The metric names each pass must report, in BENCHMARK.json order.
const std::vector<std::string>& EndToEndMetricNames();
const std::vector<std::string>& PerLayerMetricNames();

// Runs one workload. Unknown workload names are a caller error (main.cc
// checks them first).
WorkloadResult RunWorkload(const RunConfig& config);

}  // namespace mfg::perfbench

#endif  // MFGCP_PERFBENCH_WORKLOADS_H_
