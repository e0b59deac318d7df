#pragma once

/// \file options.hpp
/// Validated solver options for the `qtx::core::Simulation` facade.
///
/// `SimulationOptions` carries every physics and backend knob of the SCBA
/// driver (paper §3.2, Fig. 3). Backends are selected by *string key* —
/// resolved against a `StageRegistry` at construction time — so examples and
/// benchmarks can switch OBC / Green's-function / self-energy implementations
/// at runtime instead of recompiling option combinations:
///
///   - `obc_backend`:    "memoized" (§5.3), "beyn", "lyapunov"
///   - `greens_backend`: "rgf" (§4.3.2), "nested-dissection" (§5.4)
///   - `self_energy_channels`: any combination of "gw", "fock", "ephonon"
///   - `mixer`:          "linear" (the historic damped update), "anderson"
///                       (DIIS over mixing_history residuals), "adaptive"
///   - `la_backend`:     "reference" (portable oracle loops), "native"
///                       (cache-blocked split-complex), "blas" (optional
///                       CBLAS/LAPACKE bindings, when compiled in)
///
/// The sentinel `kAutoBackend` ("auto", the default) picks the backend the
/// legacy flat options imply: `use_memoizer`, `nd_partitions`, `gw_scale`,
/// and `ephonon.coupling_ev`, so option structs filled field by field run
/// bit-compatibly with the pre-facade driver.
///
/// `validate()` rejects inconsistent inputs with actionable messages
/// (thrown as std::runtime_error via QTX_CHECK_MSG) *before* any O(n^3)
/// work starts; every constructor of `Simulation` calls it.

#include <string>
#include <utility>
#include <vector>

#include "core/energy_grid.hpp"
#include "core/ephonon.hpp"

namespace qtx::core {

/// Contact (lead) parameters shared by both subsystems (paper §4.2).
struct ContactParams {
  double mu_left = 0.0;   ///< left chemical potential (eV)
  double mu_right = 0.0;  ///< right chemical potential (eV)
  double temperature_k = kRoomTemperatureK;  ///< contact temperature (K)
};

/// Sentinel backend key: resolve from the legacy flat options.
inline constexpr const char* kAutoBackend = "auto";

/// Full option set of the SCBA driver. Plain aggregate so callers can still
/// fill fields directly; `SimulationBuilder` provides the fluent spelling.
struct SimulationOptions {
  // --- physics ------------------------------------------------------------
  EnergyGrid grid;        ///< fermionic energy window and point count
  double eta = 0.05;  ///< retarded broadening (eV); must be > 0
  ContactParams contacts; ///< lead chemical potentials and temperature
  double mixing = 0.5;  ///< Sigma update damping, in (0, 1]
  int max_iterations = 15;  ///< SCBA iteration budget
  double tol = 1e-4;      ///< on the relative Sigma< update; must be > 0

  // --- self-consistency acceleration (src/accel) ---------------------------
  /// Anderson residual-history window (iterates kept); used by the
  /// "anderson" mixer, ignored by "linear"/"adaptive".
  int mixing_history = 4;
  /// Relative Tikhonov regularization of the Anderson least-squares system.
  double mixing_regularization = 1e-8;
  /// Divergence threshold of the convergence monitor: stop with
  /// StopReason::kDiverged once the residual grew and exceeds this factor
  /// times the best residual seen. 0 disables detection.
  double divergence_factor = 10.0;
  double gw_scale = 1.0;  ///< scales V in the GW loop; 0 = ballistic NEGF
  double fock_scale = 1.0;  ///< scales the static (Fock) exchange
  std::vector<double> cell_potential;  ///< optional gate/bias profile
  /// Electron-phonon channel (paper §8 extension); composes with GW.
  EPhononParams ephonon;

  // --- legacy backend knobs (consumed by the "auto" resolution) -----------
  bool use_memoizer = true;  ///< paper §5.3
  bool symmetrize = true;    ///< paper §5.2
  int nd_partitions = 1;     ///< P_S; 1 = sequential RGF (paper §5.4)
  int nd_threads = 1;        ///< threads per nested-dissection solve

  // --- parallel energy-loop execution (core/energy_pipeline.hpp) ----------
  /// Worker threads of the energy pipeline; 1 = sequential energy loop.
  /// Use par::ThreadPool::hardware_threads() for one worker per core.
  int num_threads = 1;
  /// Energy points per scheduled batch (each batch owns a private stage
  /// workspace). 0 = auto: one point per batch. The batch layout never
  /// depends on num_threads, so results are bit-identical for every
  /// thread count.
  int energy_batch = 0;

  // --- backend selection by registry key ----------------------------------
  std::string obc_backend = kAutoBackend;     ///< "memoized", "beyn", ...
  std::string greens_backend = kAutoBackend;  ///< "rgf", "nested-dissection"
  /// Self-energy channels, composed additively. {"auto"} resolves from
  /// gw_scale / ephonon.coupling_ev; an explicit empty list is ballistic.
  std::vector<std::string> self_energy_channels = {kAutoBackend};
  /// Energy-loop execution policy: "sequential" or "omp" (fork-join over
  /// the work-stealing thread pool). "auto" picks "omp" iff num_threads > 1.
  std::string executor = kAutoBackend;
  /// Self-consistency mixer key: "linear", "anderson", "adaptive" (or a
  /// custom registration). "auto" resolves to "linear" — the damped update
  /// the driver has always performed, bit-identically.
  std::string mixer = kAutoBackend;
  /// Dense linear-algebra kernel backend key (la/backend.hpp):
  /// "reference" (portable oracle loops — golden files are pinned to this
  /// path), "native" (cache-blocked split-complex kernels), "blas" (system
  /// CBLAS/LAPACKE, registered only when compiled in). "auto" resolves to
  /// "reference". The selection is installed process-globally at
  /// Simulation construction (the kernels are invoked deep inside the
  /// RGF/OBC layers with no options context), so the most recently
  /// constructed Simulation's choice wins.
  std::string la_backend = kAutoBackend;
  /// Communicator transport key (par/comm.hpp, registry kind "comm"):
  /// "device-direct" (in-process mailbox, zero-copy hand-off — the *CCL
  /// analogue), "host-staged" (in-process mailbox with host staging copies
  /// — the host-MPI analogue), "socket" (AF_UNIX length-prefixed frames,
  /// the transport behind multi-process `qtx run --ranks`). "auto"
  /// resolves to "device-direct" for in-process worlds; the `qtx run`
  /// launcher requires "socket" (or "auto") in ranked mode.
  std::string comm_backend = kAutoBackend;

  /// Resolve the "auto" sentinels against the legacy flat knobs.
  std::string resolved_obc_backend() const;
  std::string resolved_greens_backend() const;
  std::vector<std::string> resolved_channels() const;
  std::string resolved_executor() const;
  /// Resolve the "auto" mixer sentinel (defaults to "linear").
  std::string resolved_mixer() const;
  /// Resolve the "auto" la-backend sentinel (defaults to "reference").
  std::string resolved_la_backend() const;
  /// Resolve the "auto" comm-backend sentinel (defaults to "device-direct").
  std::string resolved_comm_backend() const;

  /// Reject inconsistent inputs with actionable messages (throws
  /// std::runtime_error). \p num_cells is the device's transport-cell count,
  /// needed to check cell_potential length and nested-dissection geometry.
  void validate(int num_cells) const;
};

// ---------------------------------------------------------------------------
// String binding — the text interface of SimulationOptions
//
// Every field of SimulationOptions is addressable by a dotted key string
// ("eta", "grid.n", "contacts.mu_left", "self_energy_channels", ...). The
// scenario-file layer (io/scenario_parser.hpp) and the sweep mode are built
// on this binding, and `serialize_options` feeds the provenance headers the
// result writers stamp on every output file. Doubles are formatted with
// "%.17g", so parse -> serialize -> parse is an identity.
//
// Append-only provenance: option keys added after the output formats
// shipped (the mixer family) are sticky-default — serialize_options omits
// them while they hold their default, so default-configuration provenance
// headers (and the golden files pinning them) stay byte-identical across
// releases. Non-default values always serialize and round-trip.
// ---------------------------------------------------------------------------

/// One serialized option: {key, value} as canonical text.
using OptionKV = std::pair<std::string, std::string>;

/// Set the option addressed by \p key from text. Throws std::runtime_error
/// on an unknown key (the message lists every known key) or a value of the
/// wrong type (the message names the expected type and the offending text).
void set_option(SimulationOptions& opt, const std::string& key,
                const std::string& value);

/// Every bindable option as {key, canonical value} in a fixed documented
/// order — the provenance block of the result writers. Round-trips:
/// applying the pairs to a default-constructed SimulationOptions with
/// set_option reproduces \p opt exactly.
std::vector<OptionKV> serialize_options(const SimulationOptions& opt);

/// All bindable option keys, in serialization order (for error messages,
/// docs, and the userguide schema table test).
std::vector<std::string> option_keys();

}  // namespace qtx::core
