#ifndef MFGCP_PERFBENCH_SPANS_H_
#define MFGCP_PERFBENCH_SPANS_H_

// In-memory span recorder for the traced pass. Spans are taken by the
// benchmark around its calls into the program's public functions (never
// inside the program), kept in a pre-reserved vector and written out once
// at exit. Each span records name, start, end, parent span and a
// (workload, epoch) id; a layer's self time is its duration minus the
// part of that interval its child spans cover.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mfg::perfbench {

using SteadyClock = std::chrono::steady_clock;

inline double SecondsBetween(SteadyClock::time_point a,
                             SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  // Since the recorder's origin.
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   // Index into the span list, -1 = root.
  std::int64_t epoch = -1;    // Epoch/boundary id, -1 = none.
};

struct SpanTotals {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class SpanRecorder {
 public:
  static constexpr std::int32_t kNone = -1;

  explicit SpanRecorder(std::string workload);

  // Spans are only taken while enabled; Begin returns kNone otherwise and
  // End/Add ignore kNone, so call sites need no branches.
  void SetEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  std::int32_t Begin(const char* name, std::int32_t parent = kNone,
                     std::int64_t epoch = -1);
  void End(std::int32_t span);
  // A span whose interval was measured elsewhere (e.g. a plan round
  // reported by the program after the fact).
  std::int32_t Add(const char* name, SteadyClock::time_point start,
                   SteadyClock::time_point end, std::int32_t parent = kNone,
                   std::int64_t epoch = -1);

  const std::vector<Span>& spans() const { return spans_; }

  // Per-name totals in first-seen order. Self time subtracts the union of
  // the direct children's intervals (clipped to the parent), so
  // overlapping children are not double-counted.
  std::vector<SpanTotals> Totals() const;

  // Chrome trace-event JSON ("X" events, microseconds), loadable in
  // chrome://tracing or Perfetto. Returns false when the file cannot be
  // written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::int64_t Now() const;

  std::string workload_;
  SteadyClock::time_point origin_;
  bool enabled_ = false;
  // Guards spans_: plan-round spans arrive from the serving runtime's
  // planner thread while the serve thread owns its Run span.
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Self time of span `index` within `spans` (exposed for the self-tests).
double SelfSeconds(const std::vector<Span>& spans, std::size_t index);

// RAII helper: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name,
             std::int32_t parent = SpanRecorder::kNone,
             std::int64_t epoch = -1)
      : recorder_(recorder), id_(recorder.Begin(name, parent, epoch)) {}
  ~ScopedSpan() { recorder_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  std::int32_t id_;
};

}  // namespace mfg::perfbench

#endif  // MFGCP_PERFBENCH_SPANS_H_
