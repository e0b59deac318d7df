#include "io/scenario_runner.hpp"

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "common/strings.hpp"
#include "core/perf_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qtx::io {
namespace {

void ensure_directory(const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    throw ScenarioError("cannot create output directory \"" + directory +
                        "\": " + ec.message());
  }
}

/// Test-only fault injection for ranked workers (see run_scenario_ranked's
/// header docs): fail the calling process the way QTX_RANKED_FAIL_MODE
/// asks. Never returns to the simulation.
[[noreturn]] void inject_ranked_fault(const std::string& mode) {
  if (mode == "throw") {
    throw ScenarioError("injected fault (QTX_RANKED_FAIL_MODE=throw)");
  }
  if (mode == "kill") ::raise(SIGKILL);  // does not return
  if (mode == "hang") {
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(60));
  }
  ::_exit(7);  // "exit" (the default mode): die with a nonzero status
}

}  // namespace

device::Structure make_structure(const Scenario& s) {
  return device::Structure(s.device);
}

core::SimulationOptions resolved_solver_options(
    const Scenario& s, const device::Structure& structure) {
  core::SimulationOptions opt = s.solver;
  if (!s.has_mu_spec) return opt;
  double base = 0.0;
  if (s.mu_reference != "absolute") {
    const device::Structure::GapInfo gap = structure.band_gap();
    if (s.mu_reference == "midgap") {
      base = gap.midgap();
    } else if (s.mu_reference == "valence-max") {
      base = gap.valence_max;
    } else {  // "conduction-min" (the parser admits nothing else)
      base = gap.conduction_min;
    }
  }
  opt.contacts.mu_left = base + s.mu_left;
  opt.contacts.mu_right = base + s.mu_right;
  return opt;
}

RunOutcome run_scenario(const Scenario& s,
                        const core::StageRegistry& registry,
                        const ProgressFn& progress, std::nullptr_t,
                        par::Comm* comm) {
  const device::Structure structure = make_structure(s);
  RunOutcome out;
  out.resolved = resolved_solver_options(s, structure);
  core::Simulation sim(structure, out.resolved, registry);
  if (comm != nullptr) sim.distribute_over(*comm);
  if (progress) sim.on_iteration(progress);
  out.results.result = sim.run();

  const core::EnergyGrid& grid = out.resolved.grid;
  out.results.energies.resize(grid.n);
  for (int e = 0; e < grid.n; ++e)
    out.results.energies[e] = grid.energy(e);
  out.results.transmission = core::transmission(sim);
  out.results.dos = core::total_dos(sim);
  out.results.density = core::electron_density(sim);
  out.results.current_left = core::spectral_current_left(sim);
  out.results.current_right = core::spectral_current_right(sim);
  out.results.terminal_left = core::terminal_current_left(sim);
  out.results.terminal_right = core::terminal_current_right(sim);
  // Score the kernels against the measured (process-cached) host peak so
  // results.json carries achieved GFLOP/s vs peak for every run.
  out.results.host_peak_gflops = core::measure_host_peak().fma_gflops;
  if (comm != nullptr) {
    out.results.comm_ranks = comm->size();
    out.results.comm_backend = out.resolved.resolved_comm_backend();
    // World-total payload bytes — a collective, so every rank must reach
    // this point (they all do: the comm path above is rank-uniform).
    out.results.comm_bytes_sent =
        comm->allreduce_sum(static_cast<double>(comm->bytes_sent()));
  }

  // Publish run-level counters into the process metrics registry (the
  // snapshot `qtx run --metrics` and the serve stats frame render). Gauges
  // reflect the most recent run; per-phase time and flops are absorbed
  // from their own ledgers at snapshot time (obs::snapshot_process).
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  const obc::MemoizerStats ms = sim.memoizer_stats();
  metrics.set_gauge("qtx.obc.direct_calls",
                    static_cast<double>(ms.direct_calls));
  metrics.set_gauge("qtx.obc.memoized_calls",
                    static_cast<double>(ms.memoized_calls));
  metrics.set_gauge("qtx.obc.fpi_iterations",
                    static_cast<double>(ms.fpi_iterations));
  const double calls =
      static_cast<double>(ms.direct_calls + ms.memoized_calls);
  metrics.set_gauge("qtx.obc.memoize_hit_rate",
                    calls > 0.0
                        ? static_cast<double>(ms.memoized_calls) / calls
                        : 0.0);
  metrics.set_gauge("qtx.run.iterations",
                    static_cast<double>(out.results.result.iterations));
  metrics.add_counter("qtx.run.completed");
  if (comm != nullptr) {
    metrics.set_gauge("qtx.comm.ranks", static_cast<double>(comm->size()));
    metrics.set_gauge(
        "qtx.comm.bytes_sent",
        static_cast<double>(out.results.comm_bytes_sent));
  }

  // In a multi-rank world the observables are replicated bit-identically
  // on every rank; only rank 0 writes files, so N ranks don't race on them.
  const bool writes_output = !s.output.directory.empty() &&
                             (comm == nullptr || comm->rank() == 0);
  if (writes_output) {
    ensure_directory(s.output.directory);
    if (s.output.csv) {
      std::vector<std::string> paths = write_result_csvs(
          s.output.directory, s, out.resolved, out.results);
      out.files.insert(out.files.end(), paths.begin(), paths.end());
    }
    if (s.output.json) {
      out.files.push_back(write_result_json(s.output.directory, s,
                                            out.resolved, out.results));
    }
  }
  return out;
}

RankedOutcome run_scenario_ranked(const Scenario& s, int ranks,
                                  double timeout_s,
                                  const core::StageRegistry& registry,
                                  const ProgressFn& progress,
                                  const std::string& trace_path,
                                  const std::string& metrics_path) {
  if (ranks < 1) {
    throw ScenarioError("ranked run needs at least 1 rank, got " +
                        std::to_string(ranks));
  }
  Scenario local = s;
  if (local.solver.comm_backend == core::kAutoBackend) {
    local.solver.comm_backend = "socket";  // auto => socket in ranked mode
  } else if (local.solver.resolved_comm_backend() != "socket") {
    throw ScenarioError(
        "comm_backend \"" + local.solver.resolved_comm_backend() +
        "\" is an in-process transport and cannot span the worker "
        "processes of a ranked run; use comm_backend = \"socket\" (or "
        "leave it on \"auto\") with --ranks");
  }

  // Read the fault-injection hooks in the parent so every worker sees a
  // consistent view even if the environment changes mid-launch.
  const char* fail_rank_env = std::getenv("QTX_RANKED_FAIL_RANK");
  const int fail_rank =
      (fail_rank_env != nullptr) ? std::atoi(fail_rank_env) : -1;
  const char* fail_mode_env = std::getenv("QTX_RANKED_FAIL_MODE");
  const std::string fail_mode =
      (fail_mode_env != nullptr) ? fail_mode_env : "exit";

  RankedOutcome out;
  out.ranks = ranks;
  out.launch =
      par::launch_ranks(ranks, timeout_s, [&](par::Comm& comm) {
        if (!trace_path.empty()) {
          // Tracing is per-process state: each forked worker enables its
          // own buffers and tags them with its rank. steady_clock's
          // timebase survives the fork, so the per-rank files merge onto
          // one consistent timeline.
          obs::set_tracing_enabled(true);
          obs::set_kernel_tracing_enabled(true);
          obs::set_trace_rank(comm.rank());
        }
        // The CLI's live print belongs to rank 0 only; a faulting rank
        // trades its hook for the injection trigger (fires after the
        // first completed iteration, i.e. mid-run).
        ProgressFn hook = (comm.rank() == 0) ? progress : ProgressFn{};
        if (comm.rank() == fail_rank) {
          hook = [&fail_mode](const core::IterationResult&) {
            inject_ranked_fault(fail_mode);
          };
        }
        run_scenario(local, registry, hook, nullptr, &comm);
        if (!trace_path.empty()) {
          obs::write_chrome_trace(trace_path + ".rank" +
                                  std::to_string(comm.rank()));
        }
        if (!metrics_path.empty() && comm.rank() == 0)
          obs::write_metrics(metrics_path);
      });
  if (!trace_path.empty() && out.launch.ok()) {
    std::vector<std::string> partials;
    partials.reserve(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r)
      partials.push_back(trace_path + ".rank" + std::to_string(r));
    obs::merge_chrome_traces(partials, trace_path);
    for (const std::string& p : partials) {
      std::error_code ec;
      std::filesystem::remove(p, ec);  // best effort: partials are advisory
    }
  }
  return out;
}

void apply_sweep_value(core::SimulationOptions& opt,
                       const std::string& parameter, double value) {
  if (parameter == "bias") {
    // Split the bias window symmetrically around the current midpoint, so
    // the sweep is centred on the scenario's operating point.
    const double mid =
        0.5 * (opt.contacts.mu_left + opt.contacts.mu_right);
    opt.contacts.mu_left = mid + 0.5 * value;
    opt.contacts.mu_right = mid - 0.5 * value;
    return;
  }
  if (parameter == "temperature") {
    opt.contacts.temperature_k = value;
    return;
  }
  core::set_option(opt, parameter, strings::format_double(value));
}

SweepOutcome run_sweep(const Scenario& s,
                       const core::StageRegistry& registry,
                       const ProgressFn& progress) {
  if (!s.has_sweep()) {
    throw ScenarioError("scenario \"" + s.name +
                        "\" has no [sweep] section; use run_scenario");
  }
  if (s.sweep.values.empty()) {
    throw ScenarioError("scenario \"" + s.name +
                        "\" sweeps \"" + s.sweep.parameter +
                        "\" over an empty value list");
  }
  const device::Structure structure = make_structure(s);
  const core::SimulationOptions base =
      resolved_solver_options(s, structure);

  SweepOutcome out;
  for (const double value : s.sweep.values) {
    core::SimulationOptions opt = base;
    apply_sweep_value(opt, s.sweep.parameter, value);
    core::Simulation sim(structure, opt, registry);
    if (progress) sim.on_iteration(progress);
    const core::TransportResult res = sim.run();
    SweepRow row;
    row.value = value;
    row.terminal_left = core::terminal_current_left(sim);
    row.terminal_right = core::terminal_current_right(sim);
    row.iterations = res.iterations;
    row.converged = res.converged;
    row.final_update = res.final_update;
    out.rows.push_back(row);
    if (out.rows.size() == 1) out.base_resolved = opt;
  }

  if (!s.output.directory.empty()) {
    ensure_directory(s.output.directory);
    out.files.push_back(
        write_sweep_csv(s.output.directory, s, out.base_resolved, out.rows));
  }
  return out;
}

}  // namespace qtx::io
