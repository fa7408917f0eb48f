#ifndef MFGCP_OBS_STREAM_H_
#define MFGCP_OBS_STREAM_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/snapshot.h"

// Background streaming export of the metrics registry for long-running
// epoch loops: where Registry::WriteJson dumps the registry once at
// process exit, the MetricsStreamer samples it on its own thread at a
// fixed cadence and appends one time-stamped row per window, so a run
// that plans epochs for hours leaves a time series instead of a single
// aggregate. Each window first refreshes the proc.* memory gauges
// (proc_stats.h).
//
// Threading contract: all sampling work — registry capture, delta
// arithmetic, procfs probes, serialization, file I/O, every allocation —
// happens on the streamer's thread. Instrumented solver/pool threads are
// never paused or slowed beyond their usual wait-free record ops, so the
// `allocs_per_epoch=0` contract of the warmed epoch pool holds with
// streaming active (bench_epoch_scaling's streaming variant enforces it).
//
// Row schema (JSONL, one object per line; see OBSERVABILITY.md
// "Streaming export" for the full reference):
//
//   {"seq":3,"unix_ms":...,"window_s":0.05,
//    "counters":{name:{"value":v,"delta":d,"rate":r}},
//    "gauges":{name:{"value":v,"delta":d}},
//    "histograms":{name:{"count":c,"sum":s,"delta_count":dc,
//                        "delta_sum":ds,"le":[...,"inf"],
//                        "delta_buckets":[...]}}}
//
// `seq` is strictly increasing from 0 and `unix_ms` non-decreasing within
// a stream. Stop() (and the destructor) flushes one final window covering
// the tail of the run, so the last row's cumulative values equal the
// registry state at shutdown — no recorded sample is lost.
//
// The optional CSV stream is a wide-format companion for quick plotting:
// one row per window, columns fixed at Start() from the instruments
// registered at that moment — counter deltas, gauge values, and per-window
// histogram percentile estimates (`<name>.p50/.p90/.p99`, computed from
// the window's bucket increments with QuantileFromBuckets; 0 for an empty
// window). Later registrations appear only in the JSONL stream.
// scripts/check_stream.py --csv validates the file.

namespace mfg::obs {

struct StreamOptions {
  std::string jsonl_path;            // Required.
  std::string csv_path;              // Optional wide-format companion.
  std::chrono::milliseconds period{1000};
};

class MetricsStreamer {
 public:
  // The shared streamer the bench `metrics_stream=` key starts. Leaked
  // like Registry::Global so atexit flushes can still reach it.
  static MetricsStreamer& Global();

  MetricsStreamer() = default;
  ~MetricsStreamer() { Stop(); }

  MetricsStreamer(const MetricsStreamer&) = delete;
  MetricsStreamer& operator=(const MetricsStreamer&) = delete;

  // Opens the output file(s), writes a window-0 baseline row, and starts
  // the sampling thread. Fails with FailedPrecondition while already
  // active (Stop first to re-target) and InvalidArgument/IoError on a bad
  // configuration.
  common::Status Start(const StreamOptions& options);

  // Stops the sampling thread, flushes the final window, and closes the
  // files. Idempotent; a no-op when not active.
  void Stop();

  bool active() const;

  // Rows appended to the JSONL stream since the last Start (including the
  // baseline row and the final flush).
  std::uint64_t windows_written() const;

 private:
  void Run();
  // Samples one window (delta vs `prev_`) and appends a row; updates
  // prev_ in place.
  void WriteWindow();
  void AppendJsonlRow(const MetricsDelta& delta);
  void AppendCsvRow(const MetricsDelta& delta);

  mutable std::mutex mutex_;  // Guards everything below.
  std::condition_variable stop_cv_;
  std::thread thread_;
  bool active_ = false;
  bool stop_requested_ = false;
  StreamOptions options_;
  std::ofstream jsonl_out_;
  std::ofstream csv_out_;
  std::vector<std::string> csv_counter_columns_;
  std::vector<std::string> csv_gauge_columns_;
  std::vector<std::string> csv_histogram_columns_;
  std::uint64_t seq_ = 0;
  std::uint64_t windows_written_ = 0;
  std::int64_t last_unix_ms_ = 0;  // Clamp: rows stay non-decreasing even
                                   // if the wall clock steps backwards.
  MetricsSnapshot prev_;
  MetricsSnapshot current_;
  MetricsDelta delta_;
};

}  // namespace mfg::obs

#endif  // MFGCP_OBS_STREAM_H_
