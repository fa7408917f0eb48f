// The benchmark workloads. Every number is taken from outside the
// program: the benchmark times calls into public functions and reads public
// outputs (EpochHealthReport, ServeStats, EpochRuntime, Equilibrium).
// See README.md for why each workload exists and what each metric means.

#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>

#include "baselines/request_cache.h"
#include "bench_util.h"
#include "common/logging.h"
#include "content/popularity.h"
#include "core/best_response_batch.h"
#include "core/equilibrium_metrics.h"
#include "core/fpk_batch.h"
#include "core/hjb_batch.h"
#include "core/mean_field_estimator.h"
#include "core/mfg_cp.h"
#include "obs/proc_stats.h"
#include "serve/serve_clock.h"
#include "serve/serve_loop.h"
#include "sim/gauntlet.h"
#include "sim/request_engine.h"
#include "sim/request_stream.h"
#include "spans.h"

namespace mfg::perfbench {
namespace {

// Every setup is repeated and its median reported, so one slow page-in
// does not move setup_s.
constexpr int kSetupReps = 3;
// Contents re-solved per standalone batched block (the planner's width).
constexpr std::size_t kBatchWidth = 8;
// Slots the standalone equilibrium probe evaluates (the planner's
// eq_probe.max_contents).
constexpr std::size_t kProbeSlots = 4;
constexpr double kZipf = 0.8;

SteadyClock::time_point Now() { return SteadyClock::now(); }

double Ms(double seconds) { return seconds * 1e3; }

class Report {
 public:
  explicit Report(WorkloadResult& result) : result_(result) {}

  void Check(bool ok, const std::string& what) {
    if (!ok) result_.check_failures.push_back(what);
  }
  void Add(const char* name, double value, const char* unit) {
    result_.metrics.push_back(Metric{name, value, unit});
  }
  // A per-layer metric this workload does not exercise: reported as 0
  // with the reason, never silently dropped.
  void Absent(const char* name, const char* unit, const char* why) {
    Add(name, 0.0, unit);
    result_.notes.push_back(std::string(name) + ": " + why);
  }
  WorkloadResult& result() { return result_; }

 private:
  WorkloadResult& result_;
};

core::MfgCpOptions PlannerOptions(std::size_t nq, std::size_t nt,
                                  std::size_t parallelism, bool probe) {
  core::MfgCpOptions options;
  options.base_params.grid.num_q_nodes = nq;
  options.base_params.grid.num_time_steps = nt;
  options.base_params.learning.max_iterations = 25;
  options.parallelism = parallelism;
  options.batch_width = kBatchWidth;
  options.eq_probe.enabled = probe;
  options.eq_probe.max_contents = kProbeSlots;
  return options;
}

sim::RequestStream Generate(std::size_t contents, std::size_t requests,
                            double rate, std::uint64_t seed) {
  sim::RequestStreamOptions options;
  options.num_contents = contents;
  options.num_requests = requests;
  options.arrival_rate = rate;
  options.zipf_iota = kZipf;
  options.seed = seed;
  auto stream = sim::GenerateRequestStream(options);
  MFG_CHECK(stream.ok()) << stream.status();
  return std::move(stream).value();
}

std::vector<double> ZipfPrior(std::size_t contents) {
  auto popularity = content::PopularityModel::CreateZipf(contents, kZipf);
  MFG_CHECK(popularity.ok()) << popularity.status();
  return popularity.value().prior();
}

// Index of the first request arriving at or after `t`.
std::size_t FirstAtOrAfter(const sim::RequestStream& stream, double t) {
  return static_cast<std::size_t>(
      std::lower_bound(stream.arrival_time.begin(), stream.arrival_time.end(), t) -
      stream.arrival_time.begin());
}

// Repeats `make` kSetupReps times, keeps the last setup and returns the
// median wall time of one setup.
template <typename Setup, typename Make>
std::unique_ptr<Setup> RepeatSetup(Make make, double& median_s) {
  std::vector<double> times;
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();  // Free the previous setup before building the next.
    const auto start = Now();
    setup = make();
    times.push_back(SecondsBetween(start, Now()));
  }
  median_s = Median(times);
  return setup;
}

// ---------------------------------------------------------------------
// One plan round as seen from outside the planner.

struct PlanRound {
  SteadyClock::time_point begin;
  SteadyClock::time_point end;
  bool ok = true;
  double plan_seconds = 0.0;  // EpochHealthReport::plan_seconds.
  std::size_t active = 0;
  std::size_t solved = 0;
  std::size_t tally = 0;  // solved + retried + carried + fallback + failed.
  std::size_t failed = 0;
  std::size_t allocations = 0;
  std::size_t retries = 0;  // Σ (attempts − 1) over the active slots.
  double imbalance = 0.0;
  std::uint64_t digest = 0;
};

// Max over mean contents_solved per pool worker (1 = perfectly even).
double Imbalance(const core::EpochRuntime& runtime) {
  std::size_t total = 0;
  std::size_t most = 0;
  for (std::size_t w = 0; w < runtime.num_workers(); ++w) {
    total += runtime.worker(w).contents_solved;
    most = std::max(most, runtime.worker(w).contents_solved);
  }
  if (total == 0) return 0.0;
  return static_cast<double>(most) * static_cast<double>(runtime.num_workers()) /
         static_cast<double>(total);
}

// Digest of every active slot's policy surface, in slot order.
std::uint64_t PlanDigest(const core::EpochPlanBuffer& buffer) {
  std::uint64_t h = kDigestSeed;
  for (std::size_t i = 0; i < buffer.num_active; ++i) {
    const core::EpochContentResult& r = buffer.results[i];
    const numerics::TimeField2D& policy = r.equilibrium.hjb.policy;
    h = DigestValue(r.content, h);
    h = DigestDoubles(std::span<const double>(policy.data(),
                                              policy.rows() * policy.cols()),
                      h);
  }
  return h;
}

PlanRound SummarizeRound(const core::EpochPlanBuffer& buffer,
                         const core::EpochHealthReport& health,
                         const core::EpochRuntime& runtime, bool digest) {
  PlanRound round;
  round.plan_seconds = health.plan_seconds;
  round.active = health.active_contents;
  round.solved = health.solved;
  round.tally = health.solved + health.retried + health.carried_forward +
                health.fallback + health.failed;
  round.failed = health.failed;
  round.allocations = health.epoch_allocations;
  for (std::size_t i = 0; i < buffer.num_active; ++i) {
    round.retries += buffer.results[i].attempts > 0
                         ? buffer.results[i].attempts - 1
                         : 0;
  }
  round.imbalance = Imbalance(runtime);
  if (digest) round.digest = PlanDigest(buffer);
  return round;
}

// The inputs and outputs of one epoch's solved slots, copied out of the
// planner for the standalone per-layer measurements.
struct CapturedPlan {
  std::vector<core::MfgParams> params;
  std::vector<core::Equilibrium> equilibria;
};

// Copy-assigns into `out`'s existing slots, so capturing every round of
// a traced serve pass reuses the previous round's storage.
void Capture(const core::EpochPlanBuffer& buffer, CapturedPlan& out) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < buffer.num_active; ++i) {
    if (buffer.outcomes[i] == core::SlotOutcome::kFailed) continue;
    if (out.params.size() <= n) {
      out.params.emplace_back();
      out.equilibria.emplace_back();
    }
    out.params[n] = buffer.results[i].params;
    out.equilibria[n] = buffer.results[i].equilibrium;
    ++n;
  }
  out.params.resize(n);
  out.equilibria.resize(n);
}

// Plan-round aggregates shared by every workload's traced pass.
void AddPlannerLayerMetrics(Report& report,
                            const std::vector<PlanRound>& rounds) {
  double busy = 0.0;
  double allocations = 0.0;
  double imbalance = 0.0;
  double solved = 0.0;
  double active = 0.0;
  double retries = 0.0;
  for (const PlanRound& r : rounds) {
    busy += r.plan_seconds;
    allocations += static_cast<double>(r.allocations);
    imbalance += r.imbalance;
    solved += static_cast<double>(r.solved);
    active += static_cast<double>(r.active);
    retries += static_cast<double>(r.retries);
  }
  const double n = rounds.empty() ? 1.0 : static_cast<double>(rounds.size());
  report.Add("core.plan_epoch.busy_ms", Ms(busy / n), "ms");
  report.Add("core.plan_epoch.calls", static_cast<double>(rounds.size()), "count");
  report.Add("core.plan_epoch.allocs_per_epoch", allocations / n, "count");
  report.Add("core.epoch_runtime.imbalance", imbalance / n, "ratio");
  report.Add("core.best_response.first_try_ratio",
             active > 0.0 ? solved / active : 0.0, "ratio");
  report.Add("core.ladder.retries_per_epoch", retries / n, "count");
}

template <typename F>
double MedianSeconds(int reps, F&& f) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto start = Now();
    f();
    times.push_back(SecondsBetween(start, Now()));
  }
  return Median(times);
}

// series[r][j] is boundary j of repetition r; returns, per boundary
// present in every repetition, the median over repetitions. Percentiles
// are then taken over boundaries, so a burst of interference that slows
// one repetition does not reach the tail.
std::vector<double> MedianPerBoundary(const std::vector<std::vector<double>>& series) {
  std::size_t n = series.empty() ? 0 : series.front().size();
  for (const auto& s : series) n = std::min(n, s.size());
  std::vector<double> out;
  std::vector<double> column;
  for (std::size_t j = 0; j < n; ++j) {
    column.clear();
    for (const auto& s : series) column.push_back(s[j]);
    out.push_back(Median(column));
  }
  return out;
}

// ---------------------------------------------------------------------
// Standalone re-solve of one epoch's batched blocks, attributing block
// time to the HJB, FPK and estimator calls it makes.
//
// The call pattern is read off best_response_batch.cc and the solved
// Equilibrium::iterations / converged flags: one initial FPK sweep over
// every lane; then per lockstep round r, (nt+1) estimates per lane still
// running, one HJB sweep over the lanes with iterations ≥ r, and one FPK
// sweep over those that did not converge at r; then a final (nt+1)
// estimate refresh per lane. Each distinct active-lane mask is timed on
// its own, so dropped-out lanes are not charged.

struct BlockBreakdown {
  std::size_t blocks = 0;
  double block_s = 0.0;  // Σ over blocks of the median SolveInto time.
  double bind_s = 0.0;   // Σ over lanes of the median BindLane time.
  std::size_t lanes = 0;
  double hjb_s = 0.0;
  std::size_t hjb_calls = 0;
  double fpk_s = 0.0;
  std::size_t fpk_calls = 0;
  double estimator_s = 0.0;
  std::size_t estimator_calls = 0;
};

constexpr int kBlockReps = 3;

void MeasureBlock(std::span<const core::MfgParams> params, BlockBreakdown& out,
                  SpanRecorder& spans, std::int32_t parent) {
  const std::size_t m = params.size();
  const std::size_t nt = params[0].grid.num_time_steps;

  // Whole block: BindLane (econ tabulation included) then SolveInto.
  core::BatchBestResponseLearner learner;
  core::BatchBestResponseLearner::Workspace ws;
  std::vector<core::Equilibrium> eqs(m);
  std::vector<core::BatchBestResponseLearner::LaneJob> jobs(m);
  std::vector<double> bind_times;
  std::vector<double> solve_times;
  for (int rep = 0; rep <= kBlockReps; ++rep) {  // rep 0 warms buffers.
    const auto t0 = Now();
    learner.Reset(m);
    for (std::size_t l = 0; l < m; ++l) {
      MFG_CHECK_OK(learner.BindLane(l, params[l]));
    }
    const auto t1 = Now();
    for (std::size_t l = 0; l < m; ++l) {
      jobs[l] = core::BatchBestResponseLearner::LaneJob{};
      jobs[l].content = params[l].content_id;
      jobs[l].active = true;
      jobs[l].out = &eqs[l];
    }
    const std::int32_t span = spans.Begin(
        "BatchBestResponseLearner::SolveInto", parent);
    learner.SolveInto(jobs, ws);
    spans.End(span);
    const auto t2 = Now();
    if (rep == 0) continue;
    bind_times.push_back(SecondsBetween(t0, t1));
    solve_times.push_back(SecondsBetween(t1, t2));
  }
  out.block_s += Median(solve_times);
  out.bind_s += Median(bind_times);
  out.lanes += m;
  ++out.blocks;

  // A lane that failed in the re-solve has no complete mean field to
  // replay; it is left out of the attributed calls (its share of the
  // block stays unattributed).
  std::vector<std::uint8_t> ok(m);
  std::size_t rounds = 0;
  for (std::size_t l = 0; l < m; ++l) {
    ok[l] = jobs[l].status.ok();
    if (ok[l]) rounds = std::max(rounds, eqs[l].iterations);
  }
  // Masks per call, in call order.
  std::vector<std::vector<std::uint8_t>> hjb_masks;
  std::vector<std::vector<std::uint8_t>> fpk_masks;
  fpk_masks.push_back(ok);
  std::size_t estimates = 0;
  for (std::size_t r = 1; r <= rounds; ++r) {
    std::vector<std::uint8_t> hjb(m, 0);
    std::vector<std::uint8_t> fpk(m, 0);
    for (std::size_t l = 0; l < m; ++l) {
      if (!ok[l] || eqs[l].iterations < r) continue;
      estimates += nt + 1;
      hjb[l] = 1;
      fpk[l] = !(eqs[l].converged && eqs[l].iterations == r);
    }
    hjb_masks.push_back(hjb);
    fpk_masks.push_back(fpk);
  }
  std::size_t ok_lanes = 0;
  for (std::uint8_t o : ok) ok_lanes += o;
  estimates += ok_lanes * (nt + 1);  // Final refresh.

  // HJB: bound on the same params, fed each lane's final mean field.
  core::HjbBatchSolver hjb;
  core::HjbBatchSolver::Workspace hjb_ws;
  std::vector<core::HjbSolution> hjb_out(m);
  std::vector<core::HjbBatchSolver::LaneIo> hjb_io(m);
  hjb.Reset(m);
  for (std::size_t l = 0; l < m; ++l) MFG_CHECK_OK(hjb.BindLane(l, params[l]));
  const auto time_hjb = [&](const std::vector<std::uint8_t>& mask) {
    for (std::size_t l = 0; l < m; ++l) {
      hjb_io[l] = core::HjbBatchSolver::LaneIo{};
      hjb_io[l].mean_field = &eqs[l].mean_field;
      hjb_io[l].solution = &hjb_out[l];
      hjb_io[l].active = mask[l] != 0;
    }
    hjb.SolveInto(hjb_io, hjb_ws);
  };
  // FPK: initial densities from the solver, each lane's final policy.
  core::FpkBatchSolver fpk;
  core::FpkBatchSolver::Workspace fpk_ws;
  std::vector<numerics::Density1D> initial(m);
  std::vector<core::FpkSolution> fpk_out(m);
  std::vector<core::FpkBatchSolver::LaneIo> fpk_io(m);
  fpk.Reset(m);
  for (std::size_t l = 0; l < m; ++l) {
    MFG_CHECK_OK(fpk.BindLane(l, params[l]));
    MFG_CHECK_OK(fpk.MakeInitialDensityInto(l, initial[l]));
  }
  const auto time_fpk = [&](const std::vector<std::uint8_t>& mask) {
    for (std::size_t l = 0; l < m; ++l) {
      fpk_io[l] = core::FpkBatchSolver::LaneIo{};
      fpk_io[l].initial = &initial[l];
      fpk_io[l].policy = &eqs[l].hjb.policy;
      fpk_io[l].solution = &fpk_out[l];
      fpk_io[l].active = mask[l] != 0;
    }
    fpk.SolveInto(fpk_io, fpk_ws);
  };
  // Each distinct mask once (masks only shrink, so there are at most m+1).
  const auto charge = [&](const char* name,
                          const std::vector<std::vector<std::uint8_t>>& masks,
                          const auto& run, double& total) {
    const std::int32_t span = spans.Begin(name, parent);
    std::vector<std::pair<std::vector<std::uint8_t>, double>> timed;
    for (const auto& mask : masks) {
      auto it = std::find_if(timed.begin(), timed.end(),
                             [&](const auto& t) { return t.first == mask; });
      if (it == timed.end()) {
        run(mask);  // Warm-up.
        timed.emplace_back(mask, MedianSeconds(kBlockReps, [&] { run(mask); }));
        it = timed.end() - 1;
      }
      total += it->second;
    }
    spans.End(span);
  };
  charge("HjbBatchSolver::SolveInto", hjb_masks, time_hjb, out.hjb_s);
  charge("FpkBatchSolver::SolveInto", fpk_masks, time_fpk, out.fpk_s);
  out.hjb_calls += hjb_masks.size();
  out.fpk_calls += fpk_masks.size();

  // Estimator: every (lane, time node) of the final equilibrium, repeated
  // until the sweep count matches the block's estimate count.
  std::vector<core::MeanFieldEstimator> estimators;
  for (std::size_t l = 0; l < m; ++l) {
    auto estimator = core::MeanFieldEstimator::Create(params[l]);
    MFG_CHECK(estimator.ok()) << estimator.status();
    estimators.push_back(std::move(estimator).value());
  }
  core::MeanFieldEstimator::Workspace est_ws;
  core::MeanFieldQuantities quantities;
  const std::size_t per_sweep = std::max<std::size_t>(1, ok_lanes * (nt + 1));
  const std::size_t sweeps = std::max<std::size_t>(1, estimates / per_sweep);
  const auto sweep = [&] {
    for (std::size_t l = 0; l < m; ++l) {
      if (!ok[l]) continue;
      for (std::size_t n = 0; n <= nt; ++n) {
        MFG_CHECK_OK(estimators[l].EstimateInto(eqs[l].fpk.densities[n],
                                                eqs[l].hjb.policy[n], est_ws,
                                                quantities));
      }
    }
  };
  const std::int32_t span = spans.Begin("MeanFieldEstimator::EstimateInto", parent);
  sweep();  // Warm-up.
  const double per_call =
      MedianSeconds(kBlockReps, [&] {
        for (std::size_t s = 0; s < sweeps; ++s) sweep();
      }) /
      static_cast<double>(sweeps * per_sweep);
  spans.End(span);
  out.estimator_s += per_call * static_cast<double>(estimates);
  out.estimator_calls += estimates;
}

void AddBlockMetrics(Report& report, const CapturedPlan& plan,
                     SpanRecorder& spans) {
  BlockBreakdown b;
  const std::int32_t parent = spans.Begin("best_response_batch.breakdown");
  for (std::size_t begin = 0; begin < plan.params.size(); begin += kBatchWidth) {
    const std::size_t end = std::min(plan.params.size(), begin + kBatchWidth);
    MeasureBlock(std::span<const core::MfgParams>(plan.params).subspan(
                     begin, end - begin),
                 b, spans, parent);
  }
  spans.End(parent);
  report.Check(b.blocks > 0, "block breakdown: no solved slots to re-solve");
  if (b.blocks == 0) return;
  const double hjb_share = b.hjb_s / b.block_s;
  const double fpk_share = b.fpk_s / b.block_s;
  const double est_share = b.estimator_s / b.block_s;
  const double unattributed = 1.0 - hjb_share - fpk_share - est_share;
  const double sum = hjb_share + fpk_share + est_share + unattributed;
  report.Check(std::fabs(sum - 1.0) < 1e-9,
               "block breakdown: shares do not sum to 1");
  std::fprintf(stderr,
               "[perfbench] best-response block: %.3f ms over %zu blocks; "
               "shares hjb=%.3f fpk=%.3f estimator=%.3f "
               "UNATTRIBUTED=%.3f\n",
               Ms(b.block_s / static_cast<double>(b.blocks)), b.blocks,
               hjb_share, fpk_share, est_share, unattributed);
  report.Add("core.best_response_batch.block_ms",
             Ms(b.block_s / static_cast<double>(b.blocks)), "ms");
  report.Add("core.best_response_batch.bind_us",
             b.bind_s / static_cast<double>(b.lanes) * 1e6, "us");
  report.Add("core.hjb_batch.call_us",
             b.hjb_s / static_cast<double>(b.hjb_calls) * 1e6, "us");
  report.Add("core.hjb_batch.share", hjb_share, "ratio");
  report.Add("core.fpk_batch.call_us",
             b.fpk_s / static_cast<double>(b.fpk_calls) * 1e6, "us");
  report.Add("core.fpk_batch.share", fpk_share, "ratio");
  report.Add("core.mean_field_estimator.call_us",
             b.estimator_s / static_cast<double>(b.estimator_calls) * 1e6, "us");
  report.Add("core.mean_field_estimator.share", est_share, "ratio");
  report.Add("core.best_response_batch.unattributed_share", unattributed,
             "ratio");
}

// Exploitability (ε-Nash gap) and consistency residual of the first
// `limit` captured slots (0 = all): the planner's eq_probe, run from
// outside.
struct ProbeResult {
  std::vector<double> gaps;
  double seconds_per_slot = 0.0;
};

ProbeResult ProbeSlots(const CapturedPlan& plan, std::size_t limit,
                       SpanRecorder& spans) {
  ProbeResult result;
  const std::size_t n =
      limit == 0 ? plan.params.size() : std::min(limit, plan.params.size());
  const std::int32_t span = spans.Begin("ComputeExploitability+ConsistencyResidual");
  const auto start = Now();
  for (std::size_t i = 0; i < n; ++i) {
    auto gap = core::ComputeExploitability(plan.params[i], plan.equilibria[i]);
    auto residual =
        core::ComputeConsistencyResidual(plan.params[i], plan.equilibria[i]);
    if (!gap.ok() || !residual.ok()) continue;
    result.gaps.push_back(gap->gap);
  }
  spans.End(span);
  if (!result.gaps.empty()) {
    result.seconds_per_slot =
        SecondsBetween(start, Now()) / static_cast<double>(result.gaps.size());
  }
  return result;
}

// Eq. 3 on one epoch's counts, µs per call.
double PopularityUpdateMicros(const sim::RequestStream& stream,
                              std::size_t contents, double period,
                              SpanRecorder& spans) {
  std::vector<std::uint64_t> counts64;
  stream.CountRequestsInto(0, FirstAtOrAfter(stream, period), contents, counts64);
  std::vector<std::size_t> counts(counts64.begin(), counts64.end());
  auto model = content::PopularityModel::CreateZipf(contents, kZipf);
  MFG_CHECK(model.ok()) << model.status();
  std::vector<double> out;
  MFG_CHECK_OK(model->UpdateInto(counts, out));
  constexpr int kCalls = 2000;
  ScopedSpan span(spans, "PopularityModel::UpdateInto");
  return MedianSeconds(5, [&] {
           for (int i = 0; i < kCalls; ++i) MFG_CHECK_OK(model->UpdateInto(counts, out));
         }) /
         kCalls * 1e6;
}

// ReplayInto + StaticSetCache with no replan hook: the request path alone.
double ReplayMreqPerSecond(const sim::RequestStream& stream,
                           const sim::RequestEngineOptions& engine_options,
                           SpanRecorder& spans) {
  sim::RequestEngineOptions options = engine_options;
  options.epoch_period = 0.0;
  const sim::RequestEngine engine(options);
  const std::vector<double> prior = ZipfPrior(options.num_contents);
  baselines::StaticSetCache cache("MPC");
  sim::RequestEngine::Workspace workspace;
  sim::RequestReplayStats stats;
  const auto replay = [&] {
    MFG_CHECK_OK(cache.Reset(options.num_contents, options.cache_capacity, prior));
    MFG_CHECK_OK(engine.ReplayInto(stream, cache, nullptr, workspace, stats));
  };
  replay();  // Warm-up.
  ScopedSpan span(spans, "RequestEngine::ReplayInto (no hook)");
  const double seconds = MedianSeconds(3, replay);
  return static_cast<double>(stream.size()) / seconds / 1e6;
}

double PeakRssMb() {
  return static_cast<double>(obs::PeakResidentBytes()) / 1e6;
}

void WriteSpans(const RunConfig& config, const SpanRecorder& spans) {
  std::fprintf(stderr, "[perfbench] spans (%zu), total / self seconds:\n",
               spans.spans().size());
  for (const SpanTotals& t : spans.Totals()) {
    std::fprintf(stderr, "  %-48s n=%-6zu total=%.4f self=%.4f\n",
                 t.name.c_str(), t.count, t.total_s, t.self_s);
  }
  if (!config.trace_out.empty() && !spans.WriteChromeTrace(config.trace_out)) {
    std::fprintf(stderr, "[perfbench] cannot write %s\n", config.trace_out.c_str());
  }
}

// ---------------------------------------------------------------------
// plan_steady: the replanning replay with a heavy planner. Each epoch's
// ~25 k requests only feed the next plan, so PlanEpochInto (batched
// HJB/FPK/estimator on the 2-worker pool) does almost all the work.

constexpr std::size_t kSteadyContents = 64;
constexpr std::size_t kSteadyEpochs = 32;
constexpr double kSteadyRate = 1000.0;
constexpr double kSteadyPeriod = 25.0;
constexpr std::size_t kSteadyCapacity = 8;

sim::MfgPlanReplanHook::Options SteadyPlanOptions(std::size_t parallelism) {
  sim::MfgPlanReplanHook::Options options;
  options.planner = PlannerOptions(41, 50, parallelism, /*probe=*/false);
  options.collect_health = true;
  return options;
}

sim::RequestEngineOptions SteadyEngineOptions() {
  sim::RequestEngineOptions options;
  options.num_contents = kSteadyContents;
  options.cache_capacity = kSteadyCapacity;
  options.epoch_period = kSteadyPeriod;
  return options;
}

std::unique_ptr<sim::MfgPlanReplanHook> MakeSteadyHook(std::size_t parallelism) {
  const sim::RequestEngineOptions engine = SteadyEngineOptions();
  auto hook = sim::MfgPlanReplanHook::Create(SteadyPlanOptions(parallelism),
                                             engine.num_contents,
                                             engine.content_size_mb, kZipf);
  MFG_CHECK(hook.ok()) << hook.status();
  return std::move(hook).value();
}

// Times every boundary's replan call and records what the planner
// reports about it.
class TimedHook final : public sim::ReplanHook {
 public:
  TimedHook(sim::MfgPlanReplanHook& inner, std::vector<PlanRound>& rounds,
            SpanRecorder& spans)
      : inner_(inner), rounds_(rounds), spans_(spans) {}

  void set_parent(std::int32_t parent) { parent_ = parent; }

  common::Status OnEpochBoundary(std::size_t epoch,
                                 std::span<const std::uint64_t> counts,
                                 baselines::RequestCachePolicy& policy) override {
    const std::int32_t span = spans_.Begin("MfgPlanReplanHook::OnEpochBoundary",
                                           parent_, static_cast<std::int64_t>(epoch));
    const auto begin = Now();
    common::Status status = inner_.OnEpochBoundary(epoch, counts, policy);
    const auto end = Now();
    spans_.End(span);
    PlanRound round = SummarizeRound(inner_.plan_buffer(), inner_.last_health(),
                                     inner_.framework().epoch_runtime(),
                                     /*digest=*/true);
    round.begin = begin;
    round.end = end;
    round.ok = status.ok();
    rounds_.push_back(round);
    return status;
  }

 private:
  sim::MfgPlanReplanHook& inner_;
  std::vector<PlanRound>& rounds_;
  SpanRecorder& spans_;
  std::int32_t parent_ = SpanRecorder::kNone;
};

struct SteadySetup {
  sim::RequestStream stream;
  std::unique_ptr<sim::MfgPlanReplanHook> hook;
  double generate_s = 0.0;
};

std::unique_ptr<SteadySetup> MakeSteadySetup(std::uint64_t seed) {
  auto setup = std::make_unique<SteadySetup>();
  const auto t0 = Now();
  // The stream ends half an epoch after the last boundary, so every seed
  // crosses exactly kSteadyEpochs boundaries.
  setup->stream = Generate(
      kSteadyContents,
      static_cast<std::size_t>(kSteadyRate * kSteadyPeriod * (kSteadyEpochs + 0.5)),
      kSteadyRate, seed);
  setup->generate_s = SecondsBetween(t0, Now());
  setup->hook = MakeSteadyHook(2);
  // Warm-up: two planning epochs (the first sizes every worker's buffers
  // round-robin, the second confirms the steady state).
  baselines::StaticSetCache cache("MFG-CP");
  MFG_CHECK_OK(cache.Reset(kSteadyContents, kSteadyCapacity,
                           ZipfPrior(kSteadyContents)));
  std::vector<std::uint64_t> counts;
  for (std::size_t e = 0; e < 2; ++e) {
    setup->stream.CountRequestsInto(
        FirstAtOrAfter(setup->stream, static_cast<double>(e) * kSteadyPeriod),
        FirstAtOrAfter(setup->stream, static_cast<double>(e + 1) * kSteadyPeriod),
        kSteadyContents, counts);
    MFG_CHECK_OK(setup->hook->OnEpochBoundary(e, counts, cache));
  }
  return setup;
}

struct ReplayRecord {
  SteadyClock::time_point start;
  SteadyClock::time_point end;
  sim::RequestReplayStats stats;
  common::Status status;
  std::size_t first_round = 0;
  std::size_t end_round = 0;
};

// Replays the stream through `hook` (timed) until `seconds` have passed.
std::vector<ReplayRecord> RunReplays(const sim::RequestStream& stream,
                                     sim::MfgPlanReplanHook& hook,
                                     std::vector<PlanRound>& rounds,
                                     SpanRecorder& spans, double seconds,
                                     std::size_t max_replays) {
  const sim::RequestEngine engine(SteadyEngineOptions());
  const std::vector<double> prior = ZipfPrior(kSteadyContents);
  baselines::StaticSetCache cache("MFG-CP");
  sim::RequestEngine::Workspace workspace;
  TimedHook timed(hook, rounds, spans);
  std::vector<ReplayRecord> replays;
  const auto start = Now();
  while (replays.size() < max_replays &&
         (replays.empty() || SecondsBetween(start, Now()) < seconds)) {
    ReplayRecord record;
    MFG_CHECK_OK(cache.Reset(kSteadyContents, kSteadyCapacity, prior));
    record.first_round = rounds.size();
    const std::int32_t span = spans.Begin("RequestEngine::ReplayInto",
                                          SpanRecorder::kNone,
                                          static_cast<std::int64_t>(replays.size()));
    timed.set_parent(span);
    record.start = Now();
    record.status = engine.ReplayInto(stream, cache, &timed, workspace, record.stats);
    record.end = Now();
    spans.End(span);
    record.end_round = rounds.size();
    replays.push_back(record);
  }
  return replays;
}

void CheckReplays(Report& report, const sim::RequestStream& stream,
                  const std::vector<ReplayRecord>& replays,
                  const std::vector<PlanRound>& rounds) {
  const ReplayRecord& first = replays.front();
  for (const ReplayRecord& r : replays) {
    report.Check(r.status.ok(), "plan_steady: ReplayInto failed: " + r.status.ToString());
    report.Check(r.stats.requests == stream.size(),
                 "plan_steady: replay served fewer requests than the stream");
    report.Check(r.stats.replan_faults == 0, "plan_steady: a replan failed");
    report.Check(r.stats.hits == first.stats.hits,
                 "plan_steady: hits differ across repetitions");
    report.Check(r.end_round - r.first_round == first.end_round - first.first_round,
                 "plan_steady: replan count differs across repetitions");
    for (std::size_t i = r.first_round; i < r.end_round; ++i) {
      const PlanRound& round = rounds[i];
      report.Check(round.ok, "plan_steady: an epoch returned a non-OK status");
      report.Check(round.failed == 0, "plan_steady: an epoch has failed slots");
      report.Check(round.tally == round.active,
                   "plan_steady: ladder tallies do not sum to active_contents");
      const std::size_t j = first.first_round + (i - r.first_round);
      report.Check(j < first.end_round && round.digest == rounds[j].digest,
                   "plan_steady: policy digest differs across repetitions");
    }
  }
}

std::uint64_t CountFailedRounds(const std::vector<PlanRound>& rounds) {
  std::uint64_t failed = 0;
  for (const PlanRound& r : rounds) failed += (!r.ok || r.failed > 0) ? 1 : 0;
  return failed;
}

void TallyReplays(WorkloadResult& result, const sim::RequestStream& stream,
                  const std::vector<ReplayRecord>& replays,
                  const std::vector<PlanRound>& rounds) {
  result.attempted += rounds.size();
  result.failed += CountFailedRounds(rounds);
  for (const ReplayRecord& r : replays) {
    result.attempted += stream.size();
    result.failed += stream.size() - std::min<std::uint64_t>(stream.size(), r.stats.requests);
  }
}

void RunPlanSteady(const RunConfig& config, Report& report, SpanRecorder& spans) {
  double setup_s = 0.0;
  auto setup = RepeatSetup<SteadySetup>([&] { return MakeSteadySetup(config.seed); },
                                        setup_s);
  const sim::RequestStream& stream = setup->stream;
  constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

  if (!config.trace) {
    std::vector<PlanRound> rounds;
    rounds.reserve(1 << 14);
    const auto replays =
        RunReplays(stream, *setup->hook, rounds, spans, config.seconds, kUnbounded);
    CheckReplays(report, stream, replays, rounds);
    TallyReplays(report.result(), stream, replays, rounds);

    std::vector<std::vector<double>> plan_series, delay_series;
    std::vector<double> rates;
    for (const ReplayRecord& r : replays) {
      rates.push_back(static_cast<double>(r.stats.requests) /
                      SecondsBetween(r.start, r.end) / 1e6);
      auto& plan = plan_series.emplace_back();
      auto& delay = delay_series.emplace_back();
      for (std::size_t i = r.first_round; i < r.end_round; ++i) {
        plan.push_back(Ms(SecondsBetween(rounds[i].begin, rounds[i].end)));
        // Unpaced: the whole stream is queued at replay start, so every
        // boundary is due then.
        delay.push_back(Ms(SecondsBetween(r.start, rounds[i].end)));
      }
    }
    const std::vector<double> plan_ms = MedianPerBoundary(plan_series);
    const std::vector<double> delay_ms = MedianPerBoundary(delay_series);
    CapturedPlan plan;
    Capture(setup->hook->plan_buffer(), plan);
    const ProbeResult probe = ProbeSlots(plan, 0, spans);
    report.Check(!probe.gaps.empty(), "plan_steady: no slot could be probed");
    report.Add("setup_s", setup_s, "s");
    report.Add("plan_p50_ms", Percentile(plan_ms, 50), "ms");
    report.Add("plan_p95_ms", Percentile(plan_ms, 95), "ms");
    report.Add("serve_mreq_s", Median(rates), "Mreq/s");
    report.Add("publish_delay_p50_ms", Percentile(delay_ms, 50), "ms");
    report.Add("publish_delay_p90_ms", Percentile(delay_ms, 90), "ms");
    report.Add("hit_ratio", replays.front().stats.HitRatio(), "ratio");
    report.Add("eq_exploitability", Median(probe.gaps), "utility");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced pass: half the window untraced, half traced (the difference is
  // the tracing overhead), then the standalone layer measurements.
  std::vector<PlanRound> plain_rounds, rounds;
  plain_rounds.reserve(1 << 14);
  rounds.reserve(1 << 14);
  spans.SetEnabled(false);
  const auto plain = RunReplays(stream, *setup->hook, plain_rounds, spans,
                                config.seconds / 2, kUnbounded);
  spans.SetEnabled(true);
  const auto traced = RunReplays(stream, *setup->hook, rounds, spans,
                                 config.seconds / 2, kUnbounded);
  CheckReplays(report, stream, plain, plain_rounds);
  CheckReplays(report, stream, traced, rounds);
  TallyReplays(report.result(), stream, plain, plain_rounds);
  TallyReplays(report.result(), stream, traced, rounds);
  report.Check(plain_rounds.front().digest == rounds.front().digest,
               "plan_steady: traced pass planned a different epoch");

  // Bit-identical at any parallelism: one replay on a 1-worker planner.
  {
    auto serial = MakeSteadyHook(1);
    std::vector<PlanRound> serial_rounds;
    serial_rounds.reserve(1 << 10);
    const auto serial_replays =
        RunReplays(stream, *serial, serial_rounds, spans, 0.0, 1);
    const ReplayRecord& ref = traced.front();
    bool same = serial_rounds.size() == ref.end_round - ref.first_round;
    for (std::size_t i = 0; same && i < serial_rounds.size(); ++i) {
      same = serial_rounds[i].digest == rounds[ref.first_round + i].digest;
    }
    report.Check(same && serial_replays.front().stats.hits == ref.stats.hits,
                 "plan_steady: 1-worker replay differs from the 2-worker plans");
  }

  AddPlannerLayerMetrics(report, rounds);
  CapturedPlan plan;
  Capture(setup->hook->plan_buffer(), plan);
  AddBlockMetrics(report, plan, spans);
  report.Absent("core.eq_probe.ms", "ms",
                "plan_steady runs with the equilibrium probe off");
  report.Add("content.popularity.update_us",
             PopularityUpdateMicros(stream, kSteadyContents, kSteadyPeriod, spans),
             "us");
  report.Add("sim.request_stream.generate_s", setup->generate_s, "s");
  report.Add("sim.replay.mreq_s",
             ReplayMreqPerSecond(stream, SteadyEngineOptions(), spans), "Mreq/s");
  for (const auto& [name, unit] :
       {std::pair{"serve.plan_wait_share", "ratio"},
        {"serve.tick_path_mreq_s", "Mreq/s"}, {"serve.handoff_ms", "ms"},
        {"serve.lag_ms", "ms"}, {"serve.deadline_misses", "count"},
        {"serve.skipped_rounds", "count"},
        {"serve.steady_allocs_per_tick", "count"}}) {
    report.Absent(name, unit, "plan_steady has no ServeLoop");
  }
  std::vector<double> plain_wall, traced_wall;
  for (const auto& r : plain) plain_wall.push_back(SecondsBetween(r.start, r.end));
  for (const auto& r : traced) traced_wall.push_back(SecondsBetween(r.start, r.end));
  report.Add("obs.trace_overhead_pct",
             (Median(traced_wall) / Median(plain_wall) - 1.0) * 100.0, "%");
}

// ---------------------------------------------------------------------
// Serving workloads: ServeLoop::Run over a generated stream.

struct ServeSpec {
  std::size_t contents;
  std::size_t capacity;
  double rate;
  double period;
  double timescale;  // serve::kTimescaleInfinite = unpaced.
  double plan_deadline_ms;
  std::size_t nq;
  std::size_t nt;
  std::size_t parallelism;
  bool probe;
};

// serve_unpaced: the request path (cursor → StaticSetCache::OnRequest →
// ledger) dominates; a light planner replans 7 times per Run.
constexpr std::size_t kUnpacedRequests = std::size_t{1} << 24;
const ServeSpec kUnpacedSpec = {
    16, 4, 1000.0,
    // 7.5 periods per stream, so every Run crosses exactly 7 boundaries
    // (with only 3, p50 would be a single boundary's plan time).
    static_cast<double>(kUnpacedRequests) / 1000.0 / 7.5,
    serve::kTimescaleInfinite, 0.0, 21, 20, 1, false};

// The async Run of serve_unpaced's traced pass: open loop at timescale 50
// (a 25-unit epoch is 0.5 s wall) with heavy per-epoch demand (~250 k
// requests, so the recovery ladder retries), an async 300 ms plan
// deadline, the eq probe on and a 2-worker pool.
const ServeSpec kAsyncSpec = {64, 8, 10000.0, 25.0, 50.0, 300.0,
                              41, 50, 2, true};

serve::ServeOptions MakeServeOptions(const ServeSpec& spec) {
  serve::ServeOptions options;
  options.engine.num_contents = spec.contents;
  options.engine.cache_capacity = spec.capacity;
  options.engine.epoch_period = spec.period;
  options.plan.planner = PlannerOptions(spec.nq, spec.nt, spec.parallelism, spec.probe);
  options.clock.timescale = spec.timescale;
  options.clock.tick_ms = 10.0;
  options.plan_deadline_ms = spec.plan_deadline_ms;
  options.zipf_iota = kZipf;
  return options;
}

// What the on_plan callback sees, recorded on the planner thread. The
// serve thread reads it only after Run returns (Run waits for any
// in-flight round, which orders these writes before the read).
struct PlanObserver {
  std::vector<PlanRound> rounds;
  const serve::ServeLoop* loop = nullptr;
  SpanRecorder* spans = nullptr;
  std::int32_t run_span = SpanRecorder::kNone;
  bool capture = false;
  CapturedPlan captured;
};

struct ServeSetup {
  sim::RequestStream stream;
  std::unique_ptr<PlanObserver> observer;
  std::unique_ptr<serve::ServeLoop> loop;
  double generate_s = 0.0;
};

// serve_unpaced's serve and planner threads never run at once (every
// boundary is synchronous), yet unpinned runs flip between ~38 and ~47
// Mreq/s depending on whether the scheduler keeps the two threads on one
// core. Pinning the process to one allowed CPU removes that coin flip.
// Returns the previous mask so the caller can restore it.
cpu_set_t PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return allowed;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    break;
  }
  return allowed;
}

// Wall time of the async Run.
constexpr double kAsyncRunSeconds = 5.0;

// Whole epochs that fit in `seconds` of paced wall time, plus half an
// epoch so every seed crosses the same number of boundaries.
std::size_t PacedRequests(const ServeSpec& spec, double seconds) {
  const double epochs = std::floor(seconds * spec.timescale / spec.period);
  return static_cast<std::size_t>(spec.rate * spec.period * (epochs + 0.5));
}

std::unique_ptr<ServeSetup> MakeServeSetup(const ServeSpec& spec,
                                           std::size_t requests,
                                           std::uint64_t seed,
                                           SpanRecorder& spans) {
  auto setup = std::make_unique<ServeSetup>();
  const auto t0 = Now();
  setup->stream = Generate(spec.contents, requests, spec.rate, seed);
  setup->generate_s = SecondsBetween(t0, Now());
  setup->observer = std::make_unique<PlanObserver>();
  PlanObserver* observer = setup->observer.get();
  observer->rounds.reserve(1 << 14);
  observer->spans = &spans;
  serve::ServeOptions options = MakeServeOptions(spec);
  options.on_plan = [observer](const core::EpochPlanBuffer& buffer,
                               const core::EpochHealthReport& health) {
    const auto end = Now();
    PlanRound round = SummarizeRound(buffer, health,
                                     observer->loop->framework().epoch_runtime(),
                                     /*digest=*/false);
    round.end = end;
    round.begin = end - std::chrono::duration_cast<SteadyClock::duration>(
                            std::chrono::duration<double>(health.plan_seconds));
    observer->rounds.push_back(round);
    observer->spans->Add("MfgCpFramework::PlanEpochInto (on_plan)", round.begin,
                         round.end, observer->run_span,
                         static_cast<std::int64_t>(health.epoch));
    if (observer->capture) Capture(buffer, observer->captured);
  };
  auto loop = serve::ServeLoop::Create(options);
  MFG_CHECK(loop.ok()) << loop.status();
  setup->loop = std::move(loop).value();
  observer->loop = setup->loop.get();

  // Warm-up: at least two plan rounds. Unpaced, one Run of the stream;
  // paced, a prefix of the same seed's stream 2.2 epochs long.
  serve::ServeStats stats;
  if (spec.timescale == serve::kTimescaleInfinite) {
    MFG_CHECK_OK(setup->loop->Run(setup->stream, stats));
  } else {
    const sim::RequestStream warmup = Generate(
        spec.contents, static_cast<std::size_t>(spec.rate * spec.period * 2.2),
        spec.rate, seed);
    MFG_CHECK_OK(setup->loop->Run(warmup, stats));
  }
  observer->rounds.clear();
  return setup;
}

struct RunRecord {
  SteadyClock::time_point start;
  SteadyClock::time_point end;
  serve::ServeStats stats;
  common::Status status;
  std::size_t first_round = 0;
  std::size_t end_round = 0;
};

std::vector<RunRecord> RunServe(ServeSetup& setup, SpanRecorder& spans,
                                double seconds, std::size_t max_runs) {
  std::vector<RunRecord> runs;
  PlanObserver& observer = *setup.observer;
  const auto start = Now();
  while (runs.size() < max_runs &&
         (runs.empty() || SecondsBetween(start, Now()) < seconds)) {
    RunRecord record;
    record.first_round = observer.rounds.size();
    observer.run_span = spans.Begin("ServeLoop::Run", SpanRecorder::kNone,
                                    static_cast<std::int64_t>(runs.size()));
    record.start = Now();
    record.status = setup.loop->Run(setup.stream, record.stats);
    record.end = Now();
    spans.End(observer.run_span);
    record.end_round = observer.rounds.size();
    runs.push_back(std::move(record));
  }
  return runs;
}

// Publication delay of each plan round: from its boundary's due instant
// (Run start + boundary / timescale; at infinite timescale the whole
// stream is queued at Run start) to its on_plan callback. Round i of a
// Run is boundary i only when no boundary was skipped or faulted.
std::vector<double> PublishDelays(const ServeSpec& spec, const RunRecord& run,
                                  const std::vector<PlanRound>& rounds) {
  std::vector<double> delays;
  if (run.stats.skipped_plan_rounds > 0 || run.stats.requests.replan_faults > 0) {
    return delays;
  }
  for (std::size_t i = run.first_round; i < run.end_round; ++i) {
    const double due_s = static_cast<double>(i - run.first_round + 1) *
                         spec.period / spec.timescale;
    delays.push_back(SecondsBetween(run.start, rounds[i].end) - due_s);
  }
  return delays;
}

void CheckRuns(Report& report, const char* name, const sim::RequestStream& stream,
               const std::vector<RunRecord>& runs,
               const std::vector<PlanRound>& rounds, bool same_hits) {
  const std::string prefix = std::string(name) + ": ";
  for (const RunRecord& r : runs) {
    report.Check(r.status.ok(), prefix + "Run failed: " + r.status.ToString());
    report.Check(r.stats.failed_epochs == 0, prefix + "failed_epochs > 0");
    report.Check(r.stats.requests.requests == stream.size(),
                 prefix + "served requests differ from the stream size");
    if (same_hits) {
      report.Check(r.stats.requests.hits == runs.front().stats.requests.hits,
                   prefix + "hits differ across repetitions");
    }
    for (std::size_t i = 0; i < r.stats.rows.size(); ++i) {
      report.Check(r.stats.rows[i].seq == i && (i == 0 || r.stats.rows[i].epoch >
                                                              r.stats.rows[i - 1].epoch),
                   prefix + "publication seq is not monotone");
    }
    for (std::size_t i = r.first_round; i < r.end_round; ++i) {
      report.Check(rounds[i].tally == rounds[i].active,
                   prefix + "ladder tallies do not sum to active_contents");
    }
  }
}

void TallyRuns(WorkloadResult& result, const sim::RequestStream& stream,
               const std::vector<RunRecord>& runs) {
  for (const RunRecord& r : runs) {
    const serve::ServeStats& s = r.stats;
    result.attempted += stream.size() + s.plan_rounds + s.skipped_plan_rounds;
    result.failed += stream.size() - std::min<std::uint64_t>(stream.size(), s.requests.requests);
    result.failed += s.failed_epochs + s.deadline_misses + s.skipped_plan_rounds +
                     s.requests.replan_faults;
  }
}

double SumPlanSeconds(const RunRecord& run, const std::vector<PlanRound>& rounds) {
  double sum = 0.0;
  for (std::size_t i = run.first_round; i < run.end_round; ++i) {
    sum += rounds[i].plan_seconds;
  }
  return sum;
}

// The async planner handoff and the planner's own eq probe run only in
// paced mode with a plan deadline. A paced workload's plan times swing
// with host load: their quartile spread over ten seeds reached 0.24, the
// largest usable bound, against at most 0.17 for the other workloads. So
// paced serving is not an end-to-end workload. serve_unpaced's traced pass
// measures these layers on one paced Run of its own instead.
void AddAsyncServeMetrics(const RunConfig& config, Report& report,
                          SpanRecorder& spans) {
  const ServeSpec& spec = kAsyncSpec;
  auto setup = MakeServeSetup(spec, PacedRequests(spec, kAsyncRunSeconds),
                              config.seed, spans);
  PlanObserver& observer = *setup->observer;
  observer.capture = true;
  const auto runs = RunServe(*setup, spans, 0.0, 1);
  observer.capture = false;
  CheckRuns(report, "serve_unpaced (async run)", setup->stream, runs,
            observer.rounds, false);
  TallyRuns(report.result(), setup->stream, runs);
  const RunRecord& run = runs.front();
  std::vector<double> handoff_ms;
  const std::vector<double> delays = PublishDelays(spec, run, observer.rounds);
  for (std::size_t i = 0; i < delays.size(); ++i) {
    handoff_ms.push_back(Ms(delays[i] - observer.rounds[run.first_round + i].plan_seconds));
  }
  report.Add("serve.handoff_ms", Median(handoff_ms), "ms");
  report.Add("serve.lag_ms",
             Ms(SecondsBetween(run.start, run.end) -
                run.stats.requests.horizon / spec.timescale),
             "ms");
  report.Add("serve.deadline_misses", static_cast<double>(run.stats.deadline_misses),
             "count");
  report.Add("serve.skipped_rounds", static_cast<double>(run.stats.skipped_plan_rounds),
             "count");
  const ProbeResult probe = ProbeSlots(observer.captured, kProbeSlots, spans);
  report.Add("core.eq_probe.ms", Ms(probe.seconds_per_slot), "ms");
}

void RunServeUnpaced(const RunConfig& config, Report& report, SpanRecorder& spans) {
  const ServeSpec& spec = kUnpacedSpec;
  const char* name = "serve_unpaced";
  const double segment_s = config.trace ? config.seconds / 2 : config.seconds;
  const std::size_t max_runs = std::numeric_limits<std::size_t>::max();

  const cpu_set_t all_cpus = PinToOneCpu();
  double setup_s = 0.0;
  auto setup = RepeatSetup<ServeSetup>(
      [&] { return MakeServeSetup(spec, kUnpacedRequests, config.seed, spans); },
      setup_s);
  const sim::RequestStream& stream = setup->stream;
  PlanObserver& observer = *setup->observer;

  std::vector<RunRecord> plain;
  if (config.trace) {
    plain = RunServe(*setup, spans, segment_s, max_runs);
    CheckRuns(report, name, stream, plain, observer.rounds, true);
    TallyRuns(report.result(), stream, plain);
    spans.SetEnabled(true);
  }
  const std::size_t first_round = observer.rounds.size();
  const auto runs = RunServe(*setup, spans, segment_s, max_runs);
  CheckRuns(report, name, stream, runs, observer.rounds, true);
  TallyRuns(report.result(), stream, runs);
  const std::vector<PlanRound>& rounds = observer.rounds;

  // Plan latency is ServeEpochRow::plan_seconds; publication delays map
  // plan round i of a Run to boundary i (see PublishDelays).
  std::vector<std::vector<double>> plan_series, delay_series;
  std::vector<double> rates;
  for (const RunRecord& r : runs) {
    rates.push_back(static_cast<double>(r.stats.requests.requests) /
                    SecondsBetween(r.start, r.end) / 1e6);
    auto& plan = plan_series.emplace_back();
    for (const serve::ServeEpochRow& row : r.stats.rows) {
      plan.push_back(Ms(row.plan_seconds));
    }
    auto& delay = delay_series.emplace_back();
    for (double d : PublishDelays(spec, r, rounds)) delay.push_back(Ms(d));
  }
  const std::vector<double> plan_ms = MedianPerBoundary(plan_series);
  const std::vector<double> delay_ms = MedianPerBoundary(delay_series);

  // One more Run captures the final plan for the outside probe and the
  // block breakdown.
  observer.capture = true;
  const auto check_run = RunServe(*setup, spans, 0.0, 1);
  observer.capture = false;
  CheckRuns(report, name, stream, check_run, observer.rounds, false);
  TallyRuns(report.result(), stream, check_run);
  const ProbeResult probe = ProbeSlots(observer.captured, 0, spans);
  report.Check(!probe.gaps.empty(), "serve_unpaced: no slot could be probed");

  if (!config.trace) {
    report.Add("setup_s", setup_s, "s");
    report.Add("plan_p50_ms", Percentile(plan_ms, 50), "ms");
    report.Add("plan_p95_ms", Percentile(plan_ms, 95), "ms");
    report.Add("serve_mreq_s", Median(rates), "Mreq/s");
    report.Add("publish_delay_p50_ms", Percentile(delay_ms, 50), "ms");
    report.Add("publish_delay_p90_ms", Percentile(delay_ms, 90), "ms");
    report.Add("hit_ratio", runs.front().stats.requests.HitRatio(), "ratio");
    report.Add("eq_exploitability", Median(probe.gaps), "utility");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Serve-equivalence contract: unpaced synchronous serving is
  // bit-identical to a ReplayInto through MfgPlanReplanHook.
  {
    const serve::ServeOptions options = MakeServeOptions(spec);
    auto hook = sim::MfgPlanReplanHook::Create(options.plan, spec.contents,
                                               options.engine.content_size_mb, kZipf);
    MFG_CHECK(hook.ok()) << hook.status();
    baselines::StaticSetCache cache("MFG-CP");
    MFG_CHECK_OK(cache.Reset(spec.contents, spec.capacity, ZipfPrior(spec.contents)));
    const sim::RequestEngine engine(options.engine);
    sim::RequestEngine::Workspace workspace;
    sim::RequestReplayStats stats;
    const common::Status status =
        engine.ReplayInto(stream, cache, hook.value().get(), workspace, stats);
    report.Check(status.ok() && stats.hits == runs.front().stats.requests.hits &&
                     stats.requests == runs.front().stats.requests.requests,
                 "serve_unpaced: hit ratio differs from the ReplayInto reference");
  }

  std::vector<PlanRound> traced_rounds(rounds.begin() + static_cast<std::ptrdiff_t>(first_round),
                                       rounds.begin() + static_cast<std::ptrdiff_t>(runs.back().end_round));
  AddPlannerLayerMetrics(report, traced_rounds);
  AddBlockMetrics(report, observer.captured, spans);
  report.Add("content.popularity.update_us",
             PopularityUpdateMicros(stream, spec.contents, spec.period, spans), "us");
  report.Add("sim.request_stream.generate_s", setup->generate_s, "s");
  sim::RequestEngineOptions engine = MakeServeOptions(spec).engine;
  report.Add("sim.replay.mreq_s", ReplayMreqPerSecond(stream, engine, spans), "Mreq/s");

  // Serve-path split from the spans: a Run's self time is its wall time
  // minus the plan rounds it waited for (its on_plan children).
  double wall = 0.0, plan = 0.0, self = 0.0, served = 0.0;
  double allocs = 0.0, ticks = 0.0;
  std::size_t run_index = 0;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    if (std::string(spans.spans()[i].name) != "ServeLoop::Run") continue;
    if (run_index < runs.size()) self += SelfSeconds(spans.spans(), i);
    ++run_index;
  }
  for (const RunRecord& r : runs) {
    wall += SecondsBetween(r.start, r.end);
    plan += SumPlanSeconds(r, rounds);
    served += static_cast<double>(r.stats.requests.requests);
    allocs += static_cast<double>(r.stats.steady_allocs);
    ticks += static_cast<double>(r.stats.steady_ticks);
  }
  report.Add("serve.plan_wait_share", plan / wall, "ratio");
  report.Add("serve.tick_path_mreq_s", served / self / 1e6, "Mreq/s");
  report.Add("serve.steady_allocs_per_tick", ticks > 0 ? allocs / ticks : 0.0, "count");

  // Tracing overhead on the workload's own end-to-end time.
  const auto median_wall = [](const std::vector<RunRecord>& rs) {
    std::vector<double> w;
    for (const auto& r : rs) w.push_back(SecondsBetween(r.start, r.end));
    return Median(w);
  };
  report.Add("obs.trace_overhead_pct",
             (median_wall(runs) / median_wall(plain) - 1.0) * 100.0, "%");

  sched_setaffinity(0, sizeof(all_cpus), &all_cpus);
  AddAsyncServeMetrics(config, report, spans);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"plan_steady", "serve_unpaced"};
  return names;
}

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {
      "setup_s",          "plan_p50_ms",          "plan_p95_ms",
      "serve_mreq_s",     "publish_delay_p50_ms", "publish_delay_p90_ms",
      "hit_ratio",        "eq_exploitability",    "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = {
      "core.plan_epoch.busy_ms",
      "core.plan_epoch.calls",
      "core.plan_epoch.allocs_per_epoch",
      "core.epoch_runtime.imbalance",
      "core.best_response.first_try_ratio",
      "core.ladder.retries_per_epoch",
      "core.best_response_batch.block_ms",
      "core.best_response_batch.bind_us",
      "core.hjb_batch.call_us",
      "core.hjb_batch.share",
      "core.fpk_batch.call_us",
      "core.fpk_batch.share",
      "core.mean_field_estimator.call_us",
      "core.mean_field_estimator.share",
      "core.best_response_batch.unattributed_share",
      "core.eq_probe.ms",
      "content.popularity.update_us",
      "sim.request_stream.generate_s",
      "sim.replay.mreq_s",
      "serve.plan_wait_share",
      "serve.tick_path_mreq_s",
      "serve.handoff_ms",
      "serve.lag_ms",
      "serve.deadline_misses",
      "serve.skipped_rounds",
      "serve.steady_allocs_per_tick",
      "obs.trace_overhead_pct"};
  return names;
}

WorkloadResult RunWorkload(const RunConfig& config) {
  WorkloadResult result;
  Report report(result);
  SpanRecorder spans(config.workload);
  if (config.workload == "plan_steady") {
    RunPlanSteady(config, report, spans);
  } else {
    RunServeUnpaced(config, report, spans);
  }
  if (config.trace) WriteSpans(config, spans);
  return result;
}

}  // namespace mfg::perfbench
