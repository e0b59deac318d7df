#pragma once

/// \file stages.hpp
/// Abstract stage interfaces of the Fig. 3 pipeline: the seams along which
/// the SCBA driver is pluggable.
///
/// The SCBA cycle decomposes into three replaceable stages, mirroring the
/// paper's kernel taxonomy (Table 4):
///
///   - `ObcSolver`         — open-boundary solves: the retarded surface
///                           Green's function x = (m - n x n')^{-1} and the
///                           lesser/greater Stein equation X = Q + s A X A†
///                           (paper §4.2). Backends: "memoized" (§5.3 warm-
///                           started fixed point with direct fallback),
///                           "beyn" (direct contour integral + Schur Stein),
///                           "lyapunov" (Sancho-Rubio decimation + doubling).
///   - `GreensSolver`      — the selected quadratic solve M X≶ M† = B≶ and
///                           selected inverse (paper §4.3). Backends: "rgf"
///                           (sequential, §4.3.2) and "nested-dissection"
///                           (spatial domain decomposition, §5.4).
///   - `SelfEnergyChannel` — additive scattering self-energies evaluated on
///                           the serialized element stacks (paper §4.4).
///                           Backends: "gw" (dynamic GW + Fock), "fock"
///                           (static exchange only), "ephonon" (§8).
///
/// Channels compose: the driver zero-initializes the Sigma stacks and lets
/// every configured channel accumulate into them, so GW + e-phonon (or any
/// custom channel) coexist without driver changes.
///
/// A fourth pluggable stage kind — the self-consistency `accel::Mixer`
/// ("linear", "anderson", "adaptive") that turns the raw Sigma proposal
/// into the next iterate — lives in src/accel/mixer.hpp (below this layer)
/// and is registered/resolved through the same `StageRegistry`.
///
/// This header carries only the abstract interfaces, so low-level consumers
/// (core/contacts.hpp) stay free of the facade's dependency tree; the
/// string-keyed `StageRegistry` that instantiates backends lives in
/// core/stage_registry.hpp.

#include <functional>
#include <string_view>
#include <vector>

#include "core/energy_grid.hpp"
#include "core/gw.hpp"
#include "obc/memoizer.hpp"
#include "rgf/sequential.hpp"

namespace qtx::core {

// ---------------------------------------------------------------------------
// Stage interfaces
// ---------------------------------------------------------------------------

/// Open-boundary-condition backend: the two lead-level solves consumed by
/// `electron_obc` / `w_obc` (core/contacts.hpp). Implementations memoize (or
/// not) across SCBA iterations keyed by `obc::ObcKey`; `stats()` feeds the
/// §5.3 ablation benchmark for every backend uniformly.
class ObcSolver {
 public:
  virtual ~ObcSolver() = default;

  /// Registry key of this backend (e.g. "beyn").
  virtual std::string_view name() const = 0;

  /// Retarded surface Green's function x = (m - n x n')^{-1} (paper Eq. 4).
  virtual la::Matrix solve_surface(const obc::ObcKey& key, const la::Matrix& m,
                                   const la::Matrix& n,
                                   const la::Matrix& np) = 0;

  /// Lesser/greater boundary function X = Q + sigma A X A† (paper Eq. 7).
  virtual la::Matrix solve_stein(const obc::ObcKey& key, const la::Matrix& q,
                                 const la::Matrix& a, double sigma) = 0;

  /// Dispatch counters (direct vs memoized solves, fixed-point iterations).
  virtual const obc::MemoizerStats& stats() const = 0;

  /// Drop any cross-iteration state (caches, counters). Nothing in the
  /// library calls it — every pipeline serves one run — but the qtxbench
  /// harness's decorating backend overrides it, so it stays until that
  /// harness drops the override.
  virtual void reset() {}
};

/// Selected-solution backend for the per-energy block-tridiagonal systems of
/// both subsystems (G and W).
class GreensSolver {
 public:
  virtual ~GreensSolver() = default;

  /// Registry key of this backend (e.g. "rgf").
  virtual std::string_view name() const = 0;

  /// Selected X^R = M^{-1} and X≶ = M^{-1} B≶ M^{-†} (paper Eqs. 9-12).
  virtual rgf::SelectedSolution solve(const bt::BlockTridiag& m,
                                      const bt::BlockTridiag& b_lesser,
                                      const bt::BlockTridiag& b_greater) = 0;
};

/// Inputs available to a self-energy channel: the serialized energy-major
/// element stacks (layout: core/gw.hpp SymLayout). The screened-interaction
/// stacks are only populated when some configured channel requested them.
struct SelfEnergyInput {
  const EnergyGrid* grid = nullptr;    ///< the fermionic energy grid
  const SymLayout* layout = nullptr;   ///< element layout of the stacks
  const std::vector<std::vector<cplx>>* g_lesser = nullptr;   ///< G< stack
  const std::vector<std::vector<cplx>>* g_greater = nullptr;  ///< G> stack
  const std::vector<std::vector<cplx>>* w_lesser = nullptr;   ///< may be null
  const std::vector<std::vector<cplx>>* w_greater = nullptr;  ///< may be null
  const std::vector<cplx>* v_elements = nullptr;  ///< serialized scaled V
};

/// Accumulation targets: zero-initialized by the driver each iteration;
/// channels *add* their contribution so multiple channels compose.
struct SelfEnergyAccumulator {
  std::vector<std::vector<cplx>>* s_lesser = nullptr;    ///< Sigma< target
  std::vector<std::vector<cplx>>* s_greater = nullptr;   ///< Sigma> target
  std::vector<std::vector<cplx>>* s_retarded = nullptr;  ///< dynamic part
  std::vector<cplx>* s_fock = nullptr;  ///< static (Hermitian) part
};

/// Execution policy of the per-energy stage chain (assemble -> OBC -> RGF):
/// the seam the parallel energy pipeline (core/energy_pipeline.hpp) plugs
/// into. Backends: "sequential" (one batch after the other on the calling
/// thread) and "omp" (fork-join over the work-stealing par::ThreadPool —
/// the shared-memory analogue of the paper's per-rank energy parallelism).
class EnergyLoopExecutor {
 public:
  virtual ~EnergyLoopExecutor() = default;

  /// Registry key of this policy (e.g. "omp").
  virtual std::string_view name() const = 0;

  /// Worker count the policy schedules onto (1 for sequential).
  virtual int concurrency() const = 0;

  /// Invoke fn(batch) exactly once per batch. Implementations may run
  /// batches concurrently and in any order; fn must touch only per-batch
  /// workspaces and the per-energy output slots of its own batch, which is
  /// what makes the result schedule-independent.
  virtual void for_each_batch(
      const std::vector<EnergyBatch>& batches,
      const std::function<void(const EnergyBatch&)>& fn) = 0;
};

/// One additive scattering self-energy (paper Fig. 3d; §8 for extensions).
class SelfEnergyChannel {
 public:
  virtual ~SelfEnergyChannel() = default;

  /// Registry key of this channel (e.g. "gw").
  virtual std::string_view name() const = 0;

  /// True if the channel consumes W≶ — the driver then runs the P and W
  /// stages of the pipeline before calling accumulate().
  virtual bool needs_screened_interaction() const { return false; }

  /// Add this channel's Sigma contribution into \p out.
  virtual void accumulate(const SelfEnergyInput& in,
                          SelfEnergyAccumulator& out) = 0;
};

}  // namespace qtx::core
