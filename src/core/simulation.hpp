#pragma once

/// \file simulation.hpp
/// The public solver facade: `Simulation`, built fluently through
/// `SimulationBuilder`, running the paper's Fig. 3 pipeline
/// (G -> P -> W -> Sigma) with pluggable stage backends (core/stages.hpp),
/// validated options (core/options.hpp), streaming observers, and a
/// structured `TransportResult`.
///
/// Quickstart:
///
///     auto sim = qtx::core::SimulationBuilder(structure)
///                    .grid(-6.0, 6.0, 64)
///                    .eta(0.02)
///                    .contacts(mu_left, mu_right)
///                    .gw(0.3)
///                    .num_threads(8)              // parallel energy loop;
///                                                 // bit-identical results
///                    .obc_backend("memoized")     // or "beyn", "lyapunov"
///                    .greens_backend("rgf")       // or "nested-dissection"
///                    .on_iteration([](const qtx::core::IterationResult& r) {
///                      std::printf("iter %d: %.3e\n", r.iteration,
///                                  r.sigma_update);
///                    })
///                    .build();                    // validates options
///     qtx::core::TransportResult res = sim.run();
///
/// Per-kernel wall times and FLOP counts are recorded under the paper's
/// Table 4 row names (G: OBC, G: RGF, W: Assembly {Beyn, Lyapunov, LHS,
/// RHS}, W: RGF, Other) and streamed through `on_kernel_timing` so bench
/// harnesses never reach into driver internals.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accel/convergence.hpp"
#include "accel/mixer.hpp"
#include "core/assembly.hpp"
#include "core/contacts.hpp"
#include "core/energy_pipeline.hpp"
#include "core/stage_registry.hpp"
#include "device/structure.hpp"

namespace qtx::core {

/// Why `Simulation::run()` stopped iterating (satellite of the SCBA
/// convergence contract: callers no longer diff iteration() against
/// max_iterations).
enum class StopReason {
  kNone = 0,            ///< not a final iteration (e.g. manual iterate())
  kConverged,           ///< sigma_update fell below tol
  kBudgetExhausted,     ///< max_iterations reached without convergence
  kNonInteracting,      ///< ballistic run: one pass is exact
  kDiverged,            ///< the convergence monitor flagged residual growth
};

/// Human-readable stop reason (for logs and benches).
const char* to_string(StopReason reason);

/// Timing/convergence record of one SCBA iteration.
struct IterationResult {
  int iteration = 0;          ///< 1-based SCBA iteration number
  double sigma_update = 0.0;  ///< ||dSigma<|| / ||Sigma<||
  double seconds = 0.0;       ///< wall time of this iteration
  /// Damping the mixer actually applied this iteration (0 when no mixing
  /// stage ran, i.e. ballistic; adaptive mixers move it between steps).
  double damping = 0.0;
  /// Residual growth ratio sigma_update / previous sigma_update, from the
  /// convergence monitor (0 on the first interacting iteration).
  double residual_ratio = 0.0;
  /// Final-iteration annotations, set by run(): whether the loop had
  /// converged at this point and why it stopped (kNone mid-run).
  bool converged = false;
  StopReason stop = StopReason::kNone;  ///< see `converged` above
  std::map<std::string, double> kernel_seconds;       ///< Table 4 rows (s)
  std::map<std::string, std::int64_t> kernel_flops;   ///< Table 4 rows
};

/// One per-kernel timing sample, streamed after every iteration (Table 4
/// ledger feed).
struct KernelTiming {
  std::string kernel;        ///< Table 4 row name, e.g. "G: RGF"
  int iteration = 0;         ///< SCBA iteration the sample belongs to
  double seconds = 0.0;      ///< wall seconds spent in this kernel
  std::int64_t flops = 0;    ///< FLOPs attributed to this kernel
};

/// Structured outcome of a `Simulation::run()`.
struct TransportResult {
  bool converged = false;  ///< did the Sigma update fall below tol?
  int iterations = 0;      ///< iterations performed by this run()
  StopReason stop_reason = StopReason::kNone;  ///< why the loop ended
  double final_update = 0.0;   ///< last ||dSigma<|| / ||Sigma<||
  double total_seconds = 0.0;  ///< wall time of the whole loop
  /// Per-kernel ledgers summed over all iterations (Table 4 rows).
  std::map<std::string, double> kernel_seconds;
  std::map<std::string, std::int64_t> kernel_flops;
  /// Every IterationResult, in order; back() carries the stop annotation.
  std::vector<IterationResult> history;
};

/// SCBA driver facade (paper §3.2): owns the device state, resolves its
/// stage backends from a `StageRegistry` at construction (validating the
/// options first), and exposes the converged Green's functions and
/// self-energies to the observables layer (core/observables.hpp).
class Simulation {
 public:
  /// Observer signature for per-iteration results (see on_iteration).
  using IterationCallback = std::function<void(const IterationResult&)>;
  /// Observer signature for per-kernel timing samples (see on_kernel_timing).
  using KernelTimingCallback = std::function<void(const KernelTiming&)>;

  /// Validates \p opt (throws std::runtime_error on inconsistent input),
  /// resolves the configured backends against \p registry, and builds the
  /// run's own energy pipeline.
  Simulation(const device::Structure& structure, const SimulationOptions& opt,
             const StageRegistry& registry = StageRegistry::global());

  Simulation(Simulation&&) = default;             ///< movable, not copyable
  Simulation& operator=(Simulation&&) = default;  ///< movable, not copyable

  /// One SCBA iteration (G -> P -> W -> Sigma -> mix). Streams per-kernel
  /// timings to the kernel observers; iteration observers fire from run().
  IterationResult iterate();

  /// Iterate until the Sigma update falls below tol or the budget runs out,
  /// streaming each IterationResult to the iteration observers as it
  /// completes. The final IterationResult (and the returned TransportResult)
  /// record whether the loop converged and why it stopped.
  TransportResult run();

  /// Streaming observers; may be registered repeatedly (all fire, in
  /// registration order).
  void on_iteration(IterationCallback cb);
  void on_kernel_timing(KernelTimingCallback cb);

  /// Shard the energy grid over \p comm's ranks: this rank solves only its
  /// owned energy points in the G and W stages and replicates the rest from
  /// its peers through an `EnergyShardExchange` (core/distributed.hpp) —
  /// per-energy payloads are posted asynchronously as each solve completes,
  /// so the exchange overlaps the remaining solves. Received state is a
  /// bitwise copy of the owner's, and the P / Sigma / mixing stages run
  /// replicated on the full grid, so every rank (and therefore a ranked
  /// `qtx run`) stays bit-identical to the sequential run. \p comm must
  /// outlive this Simulation; call before iterate()/run().
  void distribute_over(par::Comm& comm);

  /// Has the Sigma update fallen below tol?
  bool converged() const { return last_update_ <= opt_.tol; }
  /// Total iterations performed (including manual iterate() calls).
  int iteration() const { return iteration_; }
  /// The most recent ||dSigma<|| / ||Sigma<||.
  double last_update() const { return last_update_; }

  // --- backends ----------------------------------------------------------
  /// First batch workspace's backends (every batch runs the same backend
  /// kind; per-batch instances only isolate mutable solver state).
  const ObcSolver& obc_solver() const { return pipeline_->obc(0); }
  const GreensSolver& greens_solver() const { return pipeline_->greens(0); }
  /// The resolved self-energy channels, in configuration order.
  const std::vector<std::unique_ptr<SelfEnergyChannel>>& channels() const {
    return channels_;
  }
  /// The resolved self-consistency mixer (registry key opt.mixer).
  const accel::Mixer& mixer() const { return *mixer_; }
  /// Residual history + divergence/stagnation diagnostics of this run.
  const accel::ConvergenceMonitor& monitor() const { return monitor_; }
  /// OBC dispatch counters of the active backend, summed over all batch
  /// workspaces (kept under the historic name; valid for every backend,
  /// not just "memoized"). Returned by value: the aggregate is a snapshot,
  /// so successive calls never alias each other.
  obc::MemoizerStats memoizer_stats() const { return pipeline_->obc_stats(); }
  /// The parallel energy-loop engine (executor policy, batch layout).
  const EnergyPipeline& pipeline() const { return *pipeline_; }

  // --- state accessors (energy-major) ------------------------------------
  /// Retarded Green's function, one BlockTridiag per energy point.
  const std::vector<BlockTridiag>& g_retarded() const { return gr_; }
  /// Lesser Green's function, one BlockTridiag per energy point.
  const std::vector<BlockTridiag>& g_lesser() const { return glt_; }
  /// Greater Green's function, one BlockTridiag per energy point.
  const std::vector<BlockTridiag>& g_greater() const { return ggt_; }
  /// Scattering self-energy, materialized for energy index \p e.
  BlockTridiag sigma_retarded(int e) const;
  /// Lesser scattering self-energy, materialized for energy index \p e.
  BlockTridiag sigma_lesser(int e) const;
  /// Boundary (contact) injections stored during the last G solve.
  const std::vector<la::Matrix>& obc_lesser_left() const { return obc_lt_l_; }
  /// Greater contact injection at the left lead, per energy.
  const std::vector<la::Matrix>& obc_greater_left() const { return obc_gt_l_; }
  /// Lesser contact injection at the right lead, per energy.
  const std::vector<la::Matrix>& obc_lesser_right() const { return obc_lt_r_; }
  /// Greater contact injection at the right lead, per energy.
  const std::vector<la::Matrix>& obc_greater_right() const {
    return obc_gt_r_;
  }
  /// Assembled eM(E) including OBC corner corrections (for observables).
  BlockTridiag effective_system_matrix(int e) const;

  /// The validated option set this simulation runs with.
  const SimulationOptions& options() const { return opt_; }
  /// The device being simulated (copied at construction).
  const device::Structure& structure() const { return structure_; }
  /// Element layout of the serialized stacks (core/gw.hpp).
  const SymLayout& layout() const { return layout_; }
  /// Effective Hamiltonian (device H + external cell potential).
  const BlockTridiag& hamiltonian() const { return h_eff_; }

 private:
  void solve_g();
  void compute_polarization();
  void solve_w();
  accel::MixOutcome compute_sigma_and_mix();

  device::Structure structure_;
  SimulationOptions opt_;
  BlockTridiag h_eff_;  ///< Hamiltonian + external potential
  BlockTridiag v_;      ///< bare Coulomb, scaled by gw_scale
  SymLayout layout_;
  GwEngine engine_;  ///< element-wise P stage (paper §4.4)

  // Parallel energy-loop engine: executor policy plus per-batch OBC /
  // Green's-function workspaces (resolved from the registry), owned by
  // this run alone.
  std::unique_ptr<EnergyPipeline> pipeline_;
  // Self-energy channels (shared across batches; they run in the global
  // sequential reduction stage, never on pipeline workers).
  std::vector<std::unique_ptr<SelfEnergyChannel>> channels_;
  bool needs_w_ = false;  ///< some channel consumes W≶
  // Self-consistency acceleration (src/accel): the mixing policy the Sigma
  // stage dispatches through, and the residual monitor feeding
  // StopReason::kDiverged and the per-iteration diagnostics.
  std::unique_ptr<accel::Mixer> mixer_;
  accel::ConvergenceMonitor monitor_;
  // Energy-grid sharding (distribute_over): non-null means the G/W stages
  // solve only this rank's energy points and replicate the rest via the
  // shard exchange. Not owned.
  par::Comm* comm_ = nullptr;

  // Streaming observers.
  std::vector<IterationCallback> iteration_observers_;
  std::vector<KernelTimingCallback> kernel_observers_;

  // Green's functions (energy-major BT).
  std::vector<BlockTridiag> gr_, glt_, ggt_;
  // Screened interaction stacks for the W stage (bosonic grid).
  std::vector<BlockTridiag> wlt_, wgt_;
  // Polarization flats (element layout along the second index).
  std::vector<std::vector<cplx>> p_lt_, p_gt_, p_r_;
  // Scattering self-energy, stored as flats (primary storage; BT
  // materialized on demand). sig_r_ holds the dynamic part only; the static
  // (Fock) part is separate.
  std::vector<std::vector<cplx>> sig_lt_, sig_gt_, sig_r_;
  std::vector<cplx> sig_fock_;
  // Contact injections per energy (for Meir-Wingreen currents).
  std::vector<la::Matrix> obc_lt_l_, obc_gt_l_, obc_lt_r_, obc_gt_r_;
  std::vector<la::Matrix> obc_r_l_, obc_r_r_;

  int iteration_ = 0;
  double last_update_ = 1e300;
  double last_damping_ = 0.0;  ///< damping the last mix step applied
};

/// Fluent builder for `Simulation`. Collects options and observers, then
/// `build()` validates and constructs. The builder is copyable, so a base
/// configuration can be forked per scenario (see examples/nanoribbon_iv).
class SimulationBuilder {
 public:
  /// Builds against \p structure (held by pointer; must outlive build()).
  explicit SimulationBuilder(const device::Structure& structure)
      : structure_(&structure) {}

  /// Bulk-replace the option struct (observers are kept).
  SimulationBuilder& options(const SimulationOptions& opt);

  // --- physics ------------------------------------------------------------
  /// Uniform energy grid: \p n points on [\p e_min, \p e_max] (eV).
  SimulationBuilder& grid(double e_min, double e_max, int n);
  /// Set the energy grid directly.
  SimulationBuilder& grid(const EnergyGrid& g);
  /// Retarded broadening (eV); must be > 0.
  SimulationBuilder& eta(double value);
  /// Contact chemical potentials (eV) and temperature (K).
  SimulationBuilder& contacts(double mu_left, double mu_right,
                              double temperature_k = kRoomTemperatureK);
  /// Sigma update damping, in (0, 1].
  SimulationBuilder& mixing(double value);
  /// Self-consistency mixer key ("linear", "anderson", "adaptive");
  /// default "auto" resolves to "linear".
  SimulationBuilder& mixer(std::string key);
  /// Anderson residual-history window (iterates kept).
  SimulationBuilder& mixing_history(int value);
  /// Relative regularization of the Anderson least-squares solve.
  SimulationBuilder& mixing_regularization(double value);
  /// Divergence threshold of the convergence monitor (0 disables).
  SimulationBuilder& divergence_factor(double value);
  /// SCBA iteration budget.
  SimulationBuilder& max_iterations(int value);
  /// Convergence threshold on the relative Sigma< update.
  SimulationBuilder& tolerance(double value);
  /// Enable the GW channel: scales V by \p scale (0 = ballistic) and the
  /// static exchange by \p fock_scale.
  SimulationBuilder& gw(double scale, double fock_scale = 1.0);
  /// Ballistic NEGF: no interaction channels, single exact pass.
  SimulationBuilder& ballistic();
  /// Per-transport-cell gate/bias potential (eV); one entry per cell.
  SimulationBuilder& cell_potential(std::vector<double> phi);
  /// Electron-phonon channel parameters (enables it if coupling != 0).
  SimulationBuilder& ephonon(const EPhononParams& params);

  // --- parallel execution -------------------------------------------------
  /// Energy-loop worker threads (1 = sequential). Results are bit-identical
  /// for every value; see core/energy_pipeline.hpp for the guarantee.
  SimulationBuilder& num_threads(int value);
  /// Energy points per scheduled batch (0 = auto: one point per batch).
  SimulationBuilder& energy_batch(int value);
  /// Execution policy key ("sequential", "omp"); default "auto" resolves
  /// from num_threads.
  SimulationBuilder& executor(std::string key);

  // --- backend selection --------------------------------------------------
  /// Legacy knob behind obc_backend = "auto" (paper §5.3).
  SimulationBuilder& memoizer(bool enabled);
  /// Exploit the lesser/greater symmetry (paper §5.2).
  SimulationBuilder& symmetrize(bool enabled);
  /// OBC backend by registry key ("memoized", "beyn", "lyapunov").
  SimulationBuilder& obc_backend(std::string key);
  /// Green's-function backend by key ("rgf", "nested-dissection").
  SimulationBuilder& greens_backend(std::string key);
  /// Dense linear-algebra backend by key ("reference", "native", "blas").
  /// Installed process-globally at construction; see options.hpp.
  SimulationBuilder& la_backend(std::string key);
  /// Select "nested-dissection" with P_S = \p partitions (paper §5.4).
  SimulationBuilder& nested_dissection(int partitions, int threads = 1);
  /// Replace the self-energy channel list (keys compose additively).
  SimulationBuilder& self_energy_channels(std::vector<std::string> keys);
  /// Append one self-energy channel key (drops the "auto" sentinel).
  SimulationBuilder& add_channel(std::string key);
  /// Resolve backends against \p registry instead of StageRegistry::global().
  SimulationBuilder& registry(const StageRegistry& reg);

  // --- observers ----------------------------------------------------------
  /// Register a per-iteration observer on the built Simulation.
  SimulationBuilder& on_iteration(Simulation::IterationCallback cb);
  /// Register a per-kernel timing observer on the built Simulation.
  SimulationBuilder& on_kernel_timing(Simulation::KernelTimingCallback cb);

  /// The options accumulated so far (pre-validation).
  const SimulationOptions& peek_options() const { return opt_; }

  /// Validate and construct. Throws std::runtime_error on invalid options
  /// or unknown backend keys.
  Simulation build() const;

 private:
  const device::Structure* structure_;
  SimulationOptions opt_;
  const StageRegistry* registry_ = nullptr;
  std::vector<Simulation::IterationCallback> iteration_observers_;
  std::vector<Simulation::KernelTimingCallback> kernel_observers_;
};

}  // namespace qtx::core
