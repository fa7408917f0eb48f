#include "core/mfg_params.h"

#include <algorithm>
#include <cmath>

#include "numerics/finite_difference.h"

namespace mfg::core {

common::Status MfgParams::Validate() const {
  if (horizon <= 0.0) {
    return common::Status::InvalidArgument("horizon must be positive");
  }
  if (content_size <= 0.0) {
    return common::Status::InvalidArgument("content size must be positive");
  }
  if (popularity < 0.0 || popularity > 1.0) {
    return common::Status::InvalidArgument("popularity must be in [0, 1]");
  }
  if (timeliness < 0.0) {
    return common::Status::InvalidArgument("timeliness must be >= 0");
  }
  if (num_requests < 0.0) {
    return common::Status::InvalidArgument("num_requests must be >= 0");
  }
  if (edge_rate <= 0.0) {
    return common::Status::InvalidArgument("edge rate must be positive");
  }
  if (dynamics.w1 <= 0.0 || dynamics.w2 < 0.0 || dynamics.w3 < 0.0) {
    return common::Status::InvalidArgument(
        "dynamics weights must be positive (w1) / non-negative (w2, w3)");
  }
  if (dynamics.xi <= 0.0 || dynamics.xi >= 1.0) {
    return common::Status::InvalidArgument("xi must be in (0, 1)");
  }
  if (dynamics.rho_q < 0.0) {
    return common::Status::InvalidArgument("rho_q must be non-negative");
  }
  if (utility.placement.w5 <= 0.0) {
    return common::Status::InvalidArgument(
        "w5 must be positive (the placement cost must be strictly convex "
        "for Theorem 1's unique maximizer)");
  }
  if (boundary_smoothing < 0.0 || boundary_smoothing > 1.0) {
    return common::Status::InvalidArgument(
        "boundary_smoothing must be in [0, 1]");
  }
  if (case_alpha <= 0.0 || case_alpha >= 1.0) {
    return common::Status::InvalidArgument("case alpha must be in (0, 1)");
  }
  if (case_sharpness <= 0.0) {
    return common::Status::InvalidArgument("case sharpness must be positive");
  }
  if (init_std_frac <= 0.0) {
    return common::Status::InvalidArgument("init_std_frac must be positive");
  }
  if (grid.num_q_nodes < 3) {
    return common::Status::InvalidArgument("need at least 3 q nodes");
  }
  if (grid.num_time_steps < 2) {
    return common::Status::InvalidArgument("need at least 2 time steps");
  }
  if (grid.cfl_safety <= 0.0 || grid.cfl_safety > 1.0) {
    return common::Status::InvalidArgument("cfl_safety must be in (0, 1]");
  }
  if (grid.num_h_nodes < 3) {
    return common::Status::InvalidArgument("need at least 3 h nodes");
  }
  if (grid.h_range_sigmas <= 0.0) {
    return common::Status::InvalidArgument(
        "h_range_sigmas must be positive");
  }
  for (const std::vector<double>* profile :
       {&popularity_profile, &timeliness_profile, &requests_profile}) {
    if (!profile->empty() &&
        profile->size() != grid.num_time_steps + 1) {
      return common::Status::InvalidArgument(
          "workload profiles need num_time_steps + 1 entries");
    }
  }
  if (!popularity_profile.empty()) {
    for (double p : popularity_profile) {
      if (p < 0.0 || p > 1.0) {
        return common::Status::InvalidArgument(
            "popularity profile entries must be in [0, 1]");
      }
    }
  }
  for (double l : timeliness_profile) {
    if (l < 0.0) {
      return common::Status::InvalidArgument(
          "timeliness profile entries must be >= 0");
    }
  }
  for (double r : requests_profile) {
    if (r < 0.0) {
      return common::Status::InvalidArgument(
          "requests profile entries must be >= 0");
    }
  }
  if (learning.max_iterations == 0) {
    return common::Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (learning.tolerance <= 0.0) {
    return common::Status::InvalidArgument("tolerance must be positive");
  }
  if (learning.relaxation <= 0.0 || learning.relaxation > 1.0) {
    return common::Status::InvalidArgument("relaxation must be in (0, 1]");
  }
  return common::Status::Ok();
}

common::StatusOr<numerics::Grid1D> MfgParams::MakeQGrid() const {
  return numerics::Grid1D::Create(0.0, content_size, grid.num_q_nodes);
}

common::StatusOr<numerics::Grid1D> MfgParams::MakeHGrid() const {
  if (channel.varsigma <= 0.0) {
    return common::Status::InvalidArgument(
        "channel changing rate must be positive");
  }
  if (channel.upsilon <= 0.0) {
    return common::Status::InvalidArgument(
        "channel long-term mean must be positive for the h-grid");
  }
  const double stationary_std =
      channel.rho / std::sqrt(channel.varsigma);
  const double half_width = std::max(
      grid.h_range_sigmas * stationary_std, 0.05 * channel.upsilon);
  const double lo = std::max(channel.upsilon - half_width,
                             0.01 * channel.upsilon);
  const double hi = channel.upsilon + half_width;
  return numerics::Grid1D::Create(lo, hi, grid.num_h_nodes);
}

double MfgParams::EdgeRateAt(double h) const {
  const double upsilon = channel.upsilon;
  if (upsilon <= 0.0 || sinr_at_mean <= 0.0) return edge_rate;
  const double kappa = sinr_at_mean / (upsilon * upsilon);
  const double clamped_h = std::max(h, 0.0);
  const double numerator = std::log2(1.0 + kappa * clamped_h * clamped_h);
  const double denominator = std::log2(1.0 + sinr_at_mean);
  return edge_rate * numerator / denominator;
}

double MfgParams::TimeStep() const {
  return horizon / static_cast<double>(grid.num_time_steps);
}

namespace {
double ProfileAt(const std::vector<double>& profile, double fallback,
                 std::size_t node) {
  if (profile.empty()) return fallback;
  return profile[std::min(node, profile.size() - 1)];
}
}  // namespace

double MfgParams::PopularityAt(std::size_t node) const {
  return ProfileAt(popularity_profile, popularity, node);
}

double MfgParams::TimelinessAt(std::size_t node) const {
  return ProfileAt(timeliness_profile, timeliness, node);
}

double MfgParams::RequestsAt(std::size_t node) const {
  return ProfileAt(requests_profile, num_requests, node);
}

double MfgParams::CacheDriftAtNode(double x, double q,
                                   std::size_t node) const {
  const NodeDriftTerms terms = DriftTermsAt(node);
  return content_size * (-dynamics.w1 * ControlAvailability(q) * x -
                         terms.retention + terms.discard);
}

NodeDriftTerms MfgParams::DriftTermsAt(std::size_t node) const {
  return {dynamics.w2 * PopularityAt(node),
          dynamics.w3 * std::pow(dynamics.xi, TimelinessAt(node))};
}

double MfgParams::MaxAbsDriftSpeed() const {
  double max_popularity = popularity;
  for (double v : popularity_profile) max_popularity = std::max(max_popularity, v);
  double min_timeliness = timeliness;
  for (double v : timeliness_profile) min_timeliness = std::min(min_timeliness, v);
  return content_size *
         (dynamics.w1 + dynamics.w2 * std::max(max_popularity, 1.0) +
          dynamics.w3 * std::pow(dynamics.xi, min_timeliness));
}

CflSubsteps MfgParams::CflSubstepsFor(double dx) const {
  CflSubsteps steps;
  steps.dt = TimeStep();
  steps.diffusion = 0.5 * dynamics.rho_q * dynamics.rho_q;
  const double stable_dt = numerics::StableTimeStep(
      dx, MaxAbsDriftSpeed(), steps.diffusion, grid.cfl_safety);
  steps.count = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(steps.dt / stable_dt)));
  steps.dt_sub = steps.dt / static_cast<double>(steps.count);
  return steps;
}

double MfgParams::CacheDrift(double x) const {
  return content_size *
         (-dynamics.w1 * x - dynamics.w2 * popularity +
          dynamics.w3 * std::pow(dynamics.xi, timeliness));
}

double MfgParams::ControlAvailability(double q) const {
  const double fade = boundary_smoothing * content_size;
  if (fade <= 0.0) return q > 0.0 ? 1.0 : 0.0;
  if (q <= 0.0) return 0.0;
  return q >= fade ? 1.0 : q / fade;
}

double MfgParams::CacheDriftAt(double x, double q) const {
  return CacheDrift(ControlAvailability(q) * x);
}

common::StatusOr<econ::CaseModel> MfgParams::MakeCaseModel() const {
  return econ::CaseModel::Create(case_alpha, case_sharpness);
}

MfgParams DefaultPaperParams() {
  MfgParams params;
  // Channel (Eq. 1): long-term mean and fluctuation chosen to match the
  // paper's Fig. 3 setting; the fading coefficient lives on an O(1) scale
  // internally (the paper's 1e-5 factor cancels in the SINR ratio).
  params.channel.varsigma = 4.0;
  params.channel.upsilon = 6.0;
  params.channel.rho = 0.1;
  return params;
}

}  // namespace mfg::core
