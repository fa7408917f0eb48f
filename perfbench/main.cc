// Benchmark binary: runs one workload and prints, as its last stdout line,
// one JSON object with the build provenance and the result. run.py builds
// this binary in Release, adds host provenance and prints the contract
// line. Human-readable progress goes to stderr.
//
//   perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--trace-out <path>]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/build_info.h"
#include "common/logging.h"
#include "workloads.h"

namespace mfg::perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<plan_steady|serve_unpaced> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, RunConfig& config) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0.0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      config.trace = value == "1";
    } else if (key == "--trace-out") {
      config.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload;
}

// JSON string escaping for the check messages and notes.
std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Main(int argc, char** argv) {
  RunConfig config;
  if (!ParseArgs(argc, argv, config)) return Usage("bad arguments");
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == config.workload;
  if (!known) return Usage("unknown workload");

  const common::BuildInfo& build = common::GetBuildInfo();
  if (std::strcmp(build.build_type, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a '%s' tree; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build.build_type);
    return 3;
  }
  // The serving workloads log every non-converged solve the recovery
  // ladder retries; keep stderr to warnings that matter.
  common::SetLogThreshold(common::LogLevel::kError);

  const WorkloadResult result = RunWorkload(config);

  const std::vector<std::string>& expected =
      config.trace ? PerLayerMetricNames() : EndToEndMetricNames();
  std::string metrics;
  for (const std::string& name : expected) {
    const Metric* found = nullptr;
    for (const Metric& m : result.metrics) {
      if (m.name == name) found = &m;
    }
    MFG_CHECK(found != nullptr) << "workload did not report " << name;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", found->value);
    if (!metrics.empty()) metrics += ", ";
    metrics += Quote(name) + ": {\"value\": " + value +
               ", \"unit\": " + Quote(found->unit) + "}";
  }
  std::string failures, notes;
  for (const std::string& f : result.check_failures) {
    std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", f.c_str());
    failures += (failures.empty() ? "" : ", ") + Quote(f);
  }
  for (const std::string& n : result.notes) {
    std::fprintf(stderr, "[perfbench] absent: %s\n", n.c_str());
    notes += (notes.empty() ? "" : ", ") + Quote(n);
  }
  std::printf(
      "{\"build\": {\"build_type\": %s, \"git_describe\": %s, \"compiler\": %s, "
      "\"obs\": %s, \"faults\": %s, \"simd\": %s}, \"check_failures\": [%s], "
      "\"notes\": [%s], \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      Quote(build.build_type).c_str(), Quote(build.git_describe).c_str(),
      Quote(build.compiler).c_str(), build.obs_enabled ? "true" : "false",
      build.faults_enabled ? "true" : "false",
      build.simd_enabled ? "true" : "false", failures.c_str(), notes.c_str(),
      result.check_failures.empty() ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace mfg::perfbench

int main(int argc, char** argv) { return mfg::perfbench::Main(argc, argv); }
