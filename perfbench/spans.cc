#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace mfg::perfbench {

SpanRecorder::SpanRecorder(std::string workload)
    : workload_(std::move(workload)), origin_(SteadyClock::now()) {
  // Enough for every span a traced pass takes, so recording never
  // reallocates inside a measured interval.
  spans_.reserve(1 << 16);
}

std::int64_t SpanRecorder::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now() - origin_)
      .count();
}

std::int32_t SpanRecorder::Begin(const char* name, std::int32_t parent,
                                 std::int64_t epoch) {
  if (!enabled_) return kNone;
  const std::int64_t now = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, now, now, parent, epoch});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::End(std::int32_t span) {
  if (span == kNone) return;
  const std::int64_t now = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(span)].end_ns = now;
}

std::int32_t SpanRecorder::Add(const char* name, SteadyClock::time_point start,
                               SteadyClock::time_point end,
                               std::int32_t parent, std::int64_t epoch) {
  if (!enabled_) return kNone;
  const auto ns = [this](SteadyClock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, ns(start), ns(end), parent, epoch});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

double SelfSeconds(const std::vector<Span>& spans, std::size_t index) {
  const Span& span = spans[index];
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const Span& child : spans) {
    if (child.parent != static_cast<std::int32_t>(index)) continue;
    const std::int64_t lo = std::max(child.start_ns, span.start_ns);
    const std::int64_t hi = std::min(child.end_ns, span.end_ns);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t union_ns = 0;
  std::int64_t cursor = span.start_ns;
  for (const auto& [lo, hi] : covered) {
    const std::int64_t from = std::max(lo, cursor);
    if (hi > from) {
      union_ns += hi - from;
      cursor = hi;
    }
  }
  return static_cast<double>(span.end_ns - span.start_ns - union_ns) * 1e-9;
}

std::vector<SpanTotals> SpanRecorder::Totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto it = std::find_if(totals.begin(), totals.end(),
                           [&](const SpanTotals& t) { return t.name == span.name; });
    if (it == totals.end()) {
      totals.push_back(SpanTotals{span.name});
      it = totals.end() - 1;
    }
    ++it->count;
    it->total_s += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    it->self_s += SelfSeconds(spans_, i);
  }
  return totals;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"workload\":\"%s\",\"epoch\":%lld}}\n",
                 i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent,
                 workload_.c_str(), static_cast<long long>(s.epoch));
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace mfg::perfbench
