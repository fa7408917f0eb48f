#include "obs/stream.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/proc_stats.h"
#include "obs/quantile.h"

namespace mfg::obs {
namespace {

// %.17g round-trips doubles exactly (same contract as Registry::ToJson).
void AppendDouble(std::ostream& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out << buf;
}

}  // namespace

MetricsStreamer& MetricsStreamer::Global() {
  // Leaked intentionally: the bench wiring stops it from std::atexit,
  // after main's locals are gone.
  static MetricsStreamer* streamer = new MetricsStreamer();
  return *streamer;
}

common::Status MetricsStreamer::Start(const StreamOptions& options) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (active_) {
    return common::Status::FailedPrecondition(
        "metrics streamer already active; Stop() before re-targeting");
  }
  if (options.jsonl_path.empty()) {
    return common::Status::InvalidArgument(
        "metrics streamer needs a JSONL output path");
  }
  if (options.period.count() <= 0) {
    return common::Status::InvalidArgument(
        "metrics streamer period must be positive");
  }
  jsonl_out_.open(options.jsonl_path, std::ios::trunc);
  if (!jsonl_out_) {
    return common::Status::IoError("cannot open " + options.jsonl_path +
                                   " for writing");
  }
  csv_counter_columns_.clear();
  csv_gauge_columns_.clear();
  csv_histogram_columns_.clear();
  options_ = options;
  seq_ = 0;
  windows_written_ = 0;
  last_unix_ms_ = 0;

  // Window 0: a baseline row diffing the current registry against zero, so
  // consumers see the pre-existing cumulative state before the first
  // periodic window.
  SampleProcessGauges();
  CaptureSnapshot(prev_);
  if (!options.csv_path.empty()) {
    csv_out_.open(options.csv_path, std::ios::trunc);
    if (!csv_out_) {
      jsonl_out_.close();
      return common::Status::IoError("cannot open " + options.csv_path +
                                     " for writing");
    }
    // Columns are fixed now; instruments registered later appear only in
    // the JSONL stream.
    csv_out_ << "seq,unix_ms,window_s";
    for (const CounterSample& sample : prev_.counters) {
      csv_counter_columns_.push_back(sample.name);
      csv_out_ << "," << sample.name << ".delta";
    }
    for (const GaugeSample& sample : prev_.gauges) {
      csv_gauge_columns_.push_back(sample.name);
      csv_out_ << "," << sample.name;
    }
    for (const HistogramSample& sample : prev_.histograms) {
      csv_histogram_columns_.push_back(sample.name);
      csv_out_ << "," << sample.name << ".p50"
               << "," << sample.name << ".p90"
               << "," << sample.name << ".p99";
    }
    csv_out_ << "\n";
  }
  MetricsSnapshot zero;
  zero.steady_ns = prev_.steady_ns;  // Empty window: rates read 0.
  Diff(prev_, zero, delta_);
  AppendJsonlRow(delta_);
  AppendCsvRow(delta_);

  stop_requested_ = false;
  active_ = true;
  thread_ = std::thread(&MetricsStreamer::Run, this);
  return common::Status::Ok();
}

void MetricsStreamer::Stop() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!active_) return;
  stop_requested_ = true;
  stop_cv_.notify_all();
  std::thread sampler = std::move(thread_);
  lock.unlock();
  // Run() flushes the final window before returning. The joinable check
  // covers a racing second Stop() that found the thread already moved.
  if (sampler.joinable()) sampler.join();
  lock.lock();
  jsonl_out_.close();
  if (csv_out_.is_open()) csv_out_.close();
  active_ = false;
}

bool MetricsStreamer::active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

std::uint64_t MetricsStreamer::windows_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return windows_written_;
}

void MetricsStreamer::Run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_requested_) {
    stop_cv_.wait_for(lock, options_.period,
                      [this] { return stop_requested_; });
    if (stop_requested_) break;
    WriteWindow();
  }
  // Final window: everything recorded since the last periodic sample, so
  // the stream's last row matches the registry's shutdown state.
  WriteWindow();
}

void MetricsStreamer::WriteWindow() {
  SampleProcessGauges();
  CaptureSnapshot(current_);
  Diff(current_, prev_, delta_);
  AppendJsonlRow(delta_);
  AppendCsvRow(delta_);
  std::swap(prev_, current_);
}

void MetricsStreamer::AppendJsonlRow(const MetricsDelta& delta) {
  last_unix_ms_ = std::max(last_unix_ms_, delta.unix_ms);
  std::ostream& out = jsonl_out_;
  out << "{\"seq\":" << seq_++ << ",\"unix_ms\":" << last_unix_ms_
      << ",\"window_s\":";
  AppendDouble(out, delta.window_seconds);
  out << ",\"counters\":{";
  bool first = true;
  for (const CounterDelta& c : delta.counters) {
    if (!first) out << ",";
    first = false;
    out << "\"" << c.name << "\":{\"value\":" << c.value
        << ",\"delta\":" << c.delta << ",\"rate\":";
    AppendDouble(out, c.rate);
    out << "}";
  }
  out << "},\"gauges\":{";
  first = true;
  for (const GaugeDelta& g : delta.gauges) {
    if (!first) out << ",";
    first = false;
    out << "\"" << g.name << "\":{\"value\":";
    AppendDouble(out, g.value);
    out << ",\"delta\":";
    AppendDouble(out, g.delta);
    out << "}";
  }
  out << "},\"histograms\":{";
  first = true;
  for (const HistogramDelta& h : delta.histograms) {
    if (!first) out << ",";
    first = false;
    out << "\"" << h.name << "\":{\"count\":" << h.count << ",\"sum\":";
    AppendDouble(out, h.sum);
    out << ",\"delta_count\":" << h.delta_count << ",\"delta_sum\":";
    AppendDouble(out, h.delta_sum);
    out << ",\"le\":[";
    for (std::size_t b = 0; b < h.num_bounds; ++b) {
      if (b > 0) out << ",";
      AppendDouble(out, h.bounds[b]);
    }
    if (h.num_bounds > 0) out << ",";
    out << "\"inf\"],\"delta_buckets\":[";
    for (std::size_t b = 0; b <= h.num_bounds; ++b) {
      if (b > 0) out << ",";
      out << h.delta_buckets[b];
    }
    out << "]}";
  }
  out << "}}\n";
  out.flush();
  ++windows_written_;
}

void MetricsStreamer::AppendCsvRow(const MetricsDelta& delta) {
  if (!csv_out_.is_open()) return;
  std::ostream& out = csv_out_;
  out << (seq_ - 1) << "," << last_unix_ms_ << ",";
  AppendDouble(out, delta.window_seconds);
  // Both the column list and the delta are sorted by name; merge-walk so
  // instruments registered after Start are skipped, not misaligned.
  std::size_t d = 0;
  for (const std::string& column : csv_counter_columns_) {
    while (d < delta.counters.size() && delta.counters[d].name < column) ++d;
    out << ",";
    if (d < delta.counters.size() && delta.counters[d].name == column) {
      out << delta.counters[d].delta;
    } else {
      out << 0;
    }
  }
  d = 0;
  for (const std::string& column : csv_gauge_columns_) {
    while (d < delta.gauges.size() && delta.gauges[d].name < column) ++d;
    out << ",";
    if (d < delta.gauges.size() && delta.gauges[d].name == column) {
      AppendDouble(out, delta.gauges[d].value);
    } else {
      out << 0;
    }
  }
  d = 0;
  for (const std::string& column : csv_histogram_columns_) {
    while (d < delta.histograms.size() && delta.histograms[d].name < column) {
      ++d;
    }
    if (d < delta.histograms.size() && delta.histograms[d].name == column) {
      // Percentiles of this window's observations only (the delta
      // buckets), so the columns track latency shifts over time instead
      // of a run-lifetime average.
      const HistogramDelta& h = delta.histograms[d];
      out << ",";
      AppendDouble(out, QuantileFromBuckets(h, 0.50));
      out << ",";
      AppendDouble(out, QuantileFromBuckets(h, 0.90));
      out << ",";
      AppendDouble(out, QuantileFromBuckets(h, 0.99));
    } else {
      out << ",0,0,0";
    }
  }
  out << "\n";
  out.flush();
}

}  // namespace mfg::obs
