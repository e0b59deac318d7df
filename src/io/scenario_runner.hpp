#pragma once

/// \file scenario_runner.hpp
/// Execution of parsed scenarios (io/scenario_parser.hpp): builds the
/// device from the preset catalog, resolves band-edge-relative contacts,
/// runs the simulation through the `qtx::core::Simulation` facade, and
/// writes the configured result files (io/result_writer.hpp). This is the
/// whole `qtx run` / `qtx sweep` logic — the CLI binary only parses
/// arguments and prints; everything here is library code the test suite
/// exercises in-process.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/observables.hpp"
#include "core/simulation.hpp"
#include "io/result_writer.hpp"
#include "io/scenario_parser.hpp"
#include "par/launcher.hpp"

namespace qtx::io {

/// Build the scenario's device structure (preset params + overrides).
device::Structure make_structure(const Scenario& s);

/// The options the simulation actually runs with: the scenario's solver
/// options with `mu_reference`-relative contacts materialized against the
/// device's band edges (no-op when the scenario carries no mu spec).
core::SimulationOptions resolved_solver_options(
    const Scenario& s, const device::Structure& structure);

/// Outcome of one `run_scenario` call.
struct RunOutcome {
  ScenarioResults results;            ///< observables + run record
  core::SimulationOptions resolved;   ///< provenance: the options used
  std::vector<std::string> files;     ///< paths written (empty if no output)
};

/// Per-iteration progress hook (e.g. the CLI's live convergence print).
using ProgressFn = std::function<void(const core::IterationResult&)>;

/// Run one scenario end-to-end: build, solve, collect observables, and —
/// when the scenario's output directory is non-empty — write the
/// configured CSV/JSON files (the directory is created if missing).
/// \p comm, when non-null, shards the solver stages over its world
/// (`Simulation::distribute_over`): every rank of the world must call
/// run_scenario with its own rank's Comm, observables are replicated and
/// bit-identical on every rank, and only rank 0 writes output files (the
/// other ranks return an empty `files` list). The results carry the comm
/// provenance (ranks / backend / world-total bytes) for results.json.
/// The unnamed fourth parameter accepts only `nullptr`: it used to take a
/// pipeline to reuse, and stays only because the qtxbench harness still
/// passes it.
RunOutcome run_scenario(const Scenario& s,
                        const core::StageRegistry& registry =
                            core::StageRegistry::global(),
                        const ProgressFn& progress = nullptr,
                        std::nullptr_t = nullptr,
                        par::Comm* comm = nullptr);

/// Outcome of a multi-process `run_scenario_ranked` launch. The worker
/// processes run the scenario (rank 0 writes the output files); the parent
/// only supervises, so the outcome is the launch report — results live in
/// the files the workers wrote.
struct RankedOutcome {
  par::LaunchReport launch;  ///< exit code, failed ranks, diagnostic
  int ranks = 0;             ///< world size that was launched
};

/// Run \p s sharded over \p ranks forked worker processes wired by the
/// socket transport (`par::launch_ranks` + `SocketComm`): this is the
/// `qtx run --ranks N` engine. The scenario's comm_backend must resolve to
/// "socket" — "auto" is resolved to "socket" here; an explicit in-process
/// backend ("device-direct", "host-staged") throws ScenarioError, since
/// those transports cannot span processes. \p timeout_s bounds the whole
/// run; on expiry the supervisor kills and reaps every worker and the
/// report says so. \p progress fires in the rank-0 worker process only.
/// Call from a single-threaded process state (the workers are forked).
///
/// Test-only fault injection: when the environment variable
/// `QTX_RANKED_FAIL_RANK` names a rank, that worker fails after its first
/// iteration according to `QTX_RANKED_FAIL_MODE` — "exit" (default,
/// nonzero _exit), "throw" (uncaught C++ exception), "kill" (SIGKILL
/// itself), or "hang" (sleep past any timeout). Exercised by the
/// fault-injection tests in tests/test_comm_transport.cpp.
///
/// Observability (`qtx run --ranks N --trace/--metrics`): a non-empty
/// \p trace_path enables obs tracing in every worker (tagged with its
/// rank); each rank writes `<trace_path>.rank<r>` and, after a clean
/// launch, the supervisor merges them into \p trace_path and removes the
/// partials. A non-empty \p metrics_path makes rank 0 — the rank that owns
/// the output files — write its obs metrics snapshot there.
RankedOutcome run_scenario_ranked(const Scenario& s, int ranks,
                                  double timeout_s,
                                  const core::StageRegistry& registry =
                                      core::StageRegistry::global(),
                                  const ProgressFn& progress = nullptr,
                                  const std::string& trace_path = "",
                                  const std::string& metrics_path = "");

/// Outcome of a `run_sweep` call: the summary rows plus every file written.
struct SweepOutcome {
  std::vector<SweepRow> rows;  ///< one row per sweep value, in order
  core::SimulationOptions base_resolved;  ///< point-0 options (provenance)
  std::vector<std::string> files;  ///< paths written (empty if no output)
};

/// Apply one sweep point to \p opt: "bias" splits the value symmetrically
/// around the current contact midpoint (mu_left/right = mid ± value/2),
/// "temperature" sets contacts.temperature_k, and any other parameter is
/// routed through `core::set_option` (so "grid.n", "eta", ... all sweep).
void apply_sweep_value(core::SimulationOptions& opt,
                       const std::string& parameter, double value);

/// Run the scenario's [sweep]: one standalone simulation per value,
/// collecting terminal currents and convergence per point, and writing the
/// sweep summary CSV when the output directory is non-empty. Throws
/// ScenarioError if the scenario has no sweep section.
SweepOutcome run_sweep(const Scenario& s,
                       const core::StageRegistry& registry =
                           core::StageRegistry::global(),
                       const ProgressFn& progress = nullptr);

}  // namespace qtx::io
