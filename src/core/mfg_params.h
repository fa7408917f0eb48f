#ifndef MFGCP_CORE_MFG_PARAMS_H_
#define MFGCP_CORE_MFG_PARAMS_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "econ/case_probabilities.h"
#include "econ/pricing.h"
#include "econ/utility.h"
#include "numerics/grid.h"
#include "sde/ornstein_uhlenbeck.h"

// The complete parameter set for one content's mean-field game. Defaults
// follow the paper's §V-A simulation settings, rescaled into a coherent
// MB / abstract-currency / unit-time system (see DESIGN.md §"Substitutions"
// and EXPERIMENTS.md for the mapping to the paper's nominal coefficients).

namespace mfg::core {

// Drift coefficients of the cache-state SDE (Eq. 4):
//   dq = Q_k [ -w1 x - w2 Π + w3 ξ^L ] dt + ϱ_q dW.
struct CacheDynamicsParams {
  double w1 = 1.0;    // Caching-rate weight (paper: 1).
  double w2 = 0.05;   // Popularity retention weight (paper: 1/20).
  double w3 = 10.0;   // Timeliness discard weight (paper: 10).
  double xi = 0.1;    // Steepness ξ ∈ (0,1) of the urgency map (paper: 0.1).
  double rho_q = 2.0; // Diffusion ϱ_q, MB per sqrt(unit time).
};

// Numerical discretization of the (t, q) domain; the h-axis fields are
// used only by the full 2-D (h, q) solvers.
struct SolverGridParams {
  std::size_t num_q_nodes = 101;   // Nodes on [0, Q_k].
  std::size_t num_time_steps = 200;  // Output steps over [0, T].
  double cfl_safety = 0.45;        // Explicit-step safety factor.
  std::size_t num_h_nodes = 31;    // Channel-axis nodes (2-D solvers).
  // Half-width of the h-axis in stationary standard deviations of the OU
  // fading process (clamped to stay positive and non-degenerate).
  double h_range_sigmas = 4.0;
  // FPK time stepping: false = explicit finite-volume (CFL sub-stepped),
  // true = backward-Euler implicit (tridiagonal solve per step,
  // unconditionally stable — useful for stiff drift or coarse grids).
  bool implicit_fpk = false;
};

// Iterative best-response (Alg. 2) controls.
struct LearningParams {
  std::size_t max_iterations = 60;   // ψ_th.
  double tolerance = 1e-3;           // Stop when max_t,q |Δx| < tolerance.
  double relaxation = 0.5;           // Damping γ of the policy update.
};

// Explicit time stepping of one content's 1-D HJB/FPK sweeps on q-spacing
// dx: the output step split into the fewest equal substeps that satisfy
// the advection/diffusion CFL bound (MfgParams::CflSubstepsFor).
struct CflSubsteps {
  double dt = 0.0;         // Output step T / num_time_steps.
  double diffusion = 0.0;  // ½ ϱ_q².
  std::size_t count = 1;   // Substeps per output step (>= 1).
  double dt_sub = 0.0;     // dt / count.
};

// The control-independent drift terms of Eq. 4 at one time node.
struct NodeDriftTerms {
  double retention = 0.0;  // w2·Π(t_n).
  double discard = 0.0;    // w3·ξ^{L(t_n)}.
};

struct MfgParams {
  // --- Model -------------------------------------------------------------
  double horizon = 1.0;          // T (paper: 1).
  double content_size = 100.0;   // Q_k in MB (paper: 100 MB).
  double popularity = 0.3;       // Π_k during the epoch (Def. 1).
  double timeliness = 2.5;       // L_k during the epoch (Def. 2).
  double num_requests = 10.0;    // |I_k|: request rate for this content.
  // Catalog id of the content this parameter set describes. Telemetry /
  // log labels only (MfgCpFramework::ContentParams sets it); never enters
  // the numerics.
  std::size_t content_id = 0;
  double edge_rate = 10.0;       // Representative H_{i,j}, MB / unit time.
  bool sharing_enabled = true;   // false = the "MFG" baseline.

  // Control-availability fade near the full-cache boundary: downloads can
  // only fill the *remaining* space, so the control's drift (and its
  // download delay) scales by a(q) = min(q / (boundary_smoothing·Q_k), 1).
  // Without this, the reflecting boundary at q = 0 would let the solver
  // keep paying for downloads that physically cannot land.
  double boundary_smoothing = 0.05;

  CacheDynamicsParams dynamics;
  econ::UtilityParams utility;       // w4/w5, η₂/H_c, p̄.
  econ::PricingParams pricing;       // p̂, η₁.
  double case_alpha = 0.2;           // α (paper: 20%).
  double case_sharpness = 0.08;      // Logistic l (per MB; soft threshold).

  // Channel model (used by the 2-D solver and the simulator; the 1-D
  // solver freezes h at the OU long-term mean).
  sde::OuParams channel;

  // Initial mean-field distribution λ(0) ∼ N(init_mean_frac · Q_k,
  // (init_std_frac · Q_k)²), truncated to [0, Q_k] (paper §V-A defaults
  // N(0.7, 0.1²) on the normalized cache state).
  double init_mean_frac = 0.7;
  double init_std_frac = 0.1;

  // --- Numerics ----------------------------------------------------------
  SolverGridParams grid;
  LearningParams learning;

  // Validates ranges; returns the first violation.
  common::Status Validate() const;

  // The q-axis grid [0, content_size].
  common::StatusOr<numerics::Grid1D> MakeQGrid() const;

  // The h-axis grid for the 2-D solvers: centred on the OU long-term mean
  // υ_h with half-width h_range_sigmas · (stationary std), widened to at
  // least 5% of υ_h so a zero-diffusion channel still yields a grid, and
  // clamped to positive fading coefficients.
  common::StatusOr<numerics::Grid1D> MakeHGrid() const;

  // Representative SINR when the fading sits at its long-term mean υ_h;
  // EdgeRateAt scales the Shannon capacity around this operating point so
  // that EdgeRateAt(υ_h) == edge_rate exactly.
  double sinr_at_mean = 28.0;

  // Downlink rate (MB / unit time) as a function of the fading h:
  //   edge_rate · log2(1 + κ h²) / log2(1 + κ υ²),  κ = sinr_at_mean/υ².
  double EdgeRateAt(double h) const;

  // Output time step T / num_time_steps.
  double TimeStep() const;

  // --- Optional time-varying workload profiles --------------------------
  // The paper's Π_k(t), L_k(t) and |I_k(t)| evolve within the horizon
  // (Eqs. 3-4, "time-varying content service requests"). When non-empty,
  // each profile must have num_time_steps + 1 entries (one per output
  // time node) and overrides the corresponding constant above at that
  // node. Empty = constant (the default used by the figure benches).
  std::vector<double> popularity_profile;
  std::vector<double> timeliness_profile;
  std::vector<double> requests_profile;

  // Per-time-node accessors (profile value if set, the constant
  // otherwise). `node` is clamped to the profile length.
  double PopularityAt(std::size_t node) const;
  double TimelinessAt(std::size_t node) const;
  double RequestsAt(std::size_t node) const;

  // Drift of the cache state (Eq. 4) for caching rate x at full control
  // availability: Q_k (-w1 x - w2 Π + w3 ξ^L).
  double CacheDrift(double x) const;

  // a(q) ∈ [0, 1]: fraction of the control that can land given the
  // remaining space q (see boundary_smoothing).
  double ControlAvailability(double q) const;

  // Drift with the availability fade applied to the control term:
  //   Q_k (-w1 a(q) x - w2 Π + w3 ξ^L).
  double CacheDriftAt(double x, double q) const;

  // Same, with the time-node profiles applied (Π(t_n), L(t_n)).
  double CacheDriftAtNode(double x, double q, std::size_t node) const;

  // retention and discard at time node `node`. Every 1-D solver (scalar
  // and batched, HJB and FPK) takes its per-node drift terms from here.
  NodeDriftTerms DriftTermsAt(std::size_t node) const;

  // Conservative bound on |drift| over the horizon (accounts for the
  // profiles); the CFL speed used by the explicit schemes.
  double MaxAbsDriftSpeed() const;

  // The sub-stepping of the 1-D explicit sweeps on q-spacing dx:
  //   count = max(1, ⌈dt / StableTimeStep(dx, MaxAbsDriftSpeed(), ½ϱ_q²,
  //                                       cfl_safety)⌉).
  // The one place the 1-D stack applies the CFL bound (the 2-D solvers
  // bound both axes themselves).
  CflSubsteps CflSubstepsFor(double dx) const;

  // The case model built from (α, l).
  common::StatusOr<econ::CaseModel> MakeCaseModel() const;
};

// Parameters with the paper's §V-A defaults (M = 300, K = 20 live in the
// simulator options; this struct is per-content).
MfgParams DefaultPaperParams();

}  // namespace mfg::core

#endif  // MFGCP_CORE_MFG_PARAMS_H_
