// qtx — the scenario-driven command-line driver of the NEGF+GW transport
// stack. Wraps the library layers (io/scenario_parser, io/scenario_runner,
// io/result_writer, serve/server) behind its subcommands; every tutorial in
// docs/ drives this binary.
//
//   qtx run    <scenario.ini> [--out DIR] [--threads N] [--ranks N]
//              [--rank-timeout SECONDS] [--trace FILE] [--metrics FILE]
//              [--set k=v]... [--quiet]
//   qtx sweep  <scenario.ini> [--out DIR] [--threads N] [--set k=v]... [--quiet]
//   qtx print  <scenario.ini> [--set k=v]...  # parse + validate, emit canonical
//   qtx serve  --socket PATH [--workers N] [--queue N] [--cache-mb MB]
//              [--request-timeout SECONDS] [--quiet]   # long-lived daemon
//   qtx submit <scenario.ini> --socket PATH [--set k=v]... | --shutdown
//              | --stats
//   qtx list-backends             # the StageRegistry catalog, generated
//   qtx list-presets              # the device catalog (src/device/presets)
//   qtx --help | --version
//
// Exit codes: 0 success, 1 scenario/runtime error, 2 usage error.

#include <csignal>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "io/scenario_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

constexpr const char* kVersion = "qtx 0.1.0 (quatrex-cpp)";

constexpr const char* kUsage =
    "qtx — scenario-driven NEGF+GW quantum-transport driver\n"
    "\n"
    "usage:\n"
    "  qtx run   <scenario.ini> [--out DIR] [--threads N] [--ranks N]\n"
    "            [--rank-timeout SECONDS] [--trace FILE] [--metrics FILE]\n"
    "            [--set KEY=VALUE]... [--quiet]\n"
    "  qtx sweep <scenario.ini> [--out DIR] [--threads N] [--set KEY=VALUE]"
    "... [--quiet]\n"
    "  qtx print <scenario.ini> [--set KEY=VALUE]...\n"
    "  qtx serve --socket PATH [--workers N] [--queue N] [--cache-mb MB]\n"
    "            [--request-timeout SECONDS] [--quiet]\n"
    "  qtx submit <scenario.ini> --socket PATH [--set KEY=VALUE]... "
    "[--quiet]\n"
    "  qtx submit --socket PATH --shutdown | --stats\n"
    "  qtx list-backends\n"
    "  qtx list-presets\n"
    "  qtx --help | --version\n"
    "\n"
    "run            solve one scenario and write CSV/JSON results\n"
    "sweep          iterate the scenario's [sweep] values (bias,\n"
    "               temperature, or any solver option key)\n"
    "print          parse + validate, then print the canonical scenario\n"
    "serve          long-lived daemon: accept decks on an AF_UNIX socket,\n"
    "               answer repeated decks from a result cache;\n"
    "               SIGTERM (or submit --shutdown) drains gracefully\n"
    "submit         send a deck to a running qtx serve and print the\n"
    "               results.json reply (bit-identical to a cold qtx run)\n"
    "list-backends  print every registered stage backend key\n"
    "list-presets   print the device scenario catalog\n"
    "\n"
    "--out DIR      override the scenario's [output] directory\n"
    "--threads N    override the scenario's solver num_threads\n"
    "--ranks N      (run only) fork N worker processes and shard the\n"
    "               energy grid over them via the \"socket\" comm backend;\n"
    "               rank 0 writes the output files, bit-identical to a\n"
    "               sequential run\n"
    "--rank-timeout SECONDS  kill and reap the workers if the ranked run\n"
    "               exceeds this wall-clock budget (default 300)\n"
    "--trace FILE   (run only) record an execution trace and write it as\n"
    "               Chrome/Perfetto trace-event JSON (open in\n"
    "               https://ui.perfetto.dev or chrome://tracing); with\n"
    "               --ranks N the per-rank traces are merged into FILE\n"
    "--metrics FILE (run only) write the process metrics snapshot after\n"
    "               the run — counters, gauges, and histograms under the\n"
    "               qtx.* namespace; \".prom\" suffix selects Prometheus\n"
    "               text format, anything else JSON\n"
    "--set KEY=VALUE  override any [solver] or [device] deck key without\n"
    "               editing the file (repeatable; device keys take a\n"
    "               \"device.\" prefix, e.g. --set device.num_cells=8\n"
    "               --set mixer=anderson)\n"
    "--quiet        suppress per-iteration progress lines\n"
    "--socket PATH  (serve/submit) AF_UNIX socket path of the daemon\n"
    "--workers N    (serve) solver worker threads (default 1)\n"
    "--queue N      (serve) pending-request capacity before new requests\n"
    "               are answered with a queue-full error (default 16)\n"
    "--cache-mb MB  (serve) result-cache byte budget in MiB; 0 disables\n"
    "               caching (default 64)\n"
    "--request-timeout SECONDS  (serve) max queue wait before a request\n"
    "               is answered with a timeout error (default 300)\n"
    "--shutdown     (submit) ask the daemon to drain and exit instead of\n"
    "               submitting a deck\n"
    "--stats        (submit) scrape the daemon's live metrics snapshot\n"
    "               (JSON) without submitting a deck; answered without\n"
    "               queueing behind in-flight requests\n"
    "\n"
    "Scenario-file schema and tutorials: docs/userguide.md, docs/tutorials/.\n";

struct CliArgs {
  std::string command;
  std::string scenario_path;
  std::string out_dir;
  int threads = 0;  ///< 0 = keep the scenario's value
  int ranks = 0;    ///< 0 = in-process run; N > 0 forks N workers
  double rank_timeout = 300.0;  ///< seconds before a ranked run is killed
  bool quiet = false;
  std::string socket_path;        ///< serve/submit: AF_UNIX socket path
  int workers = 1;                ///< serve: solver worker threads
  int queue = 16;                 ///< serve: pending-request capacity
  double cache_mb = 64.0;         ///< serve: result-cache budget in MiB
  double request_timeout = 300.0; ///< serve: max queue wait in seconds
  bool shutdown = false;          ///< submit: drain the daemon instead
  bool stats = false;             ///< submit: scrape the daemon's metrics
  std::string trace_path;         ///< run: Chrome trace JSON output path
  std::string metrics_path;       ///< run: metrics snapshot output path
  /// --set KEY=VALUE deck overrides, in command-line order.
  std::vector<std::pair<std::string, std::string>> sets;
};

int usage_error(const std::string& message) {
  std::fprintf(stderr, "qtx: %s\n\n%s", message.c_str(), kUsage);
  return 2;
}

bool parse_cli(int argc, char** argv, CliArgs& args, int& exit_code) {
  if (argc < 2) {
    exit_code = usage_error("missing command");
    return false;
  }
  args.command = argv[1];
  if (args.command == "--help" || args.command == "-h" ||
      args.command == "help") {
    std::printf("%s", kUsage);
    exit_code = 0;
    return false;
  }
  if (args.command == "--version") {
    std::printf("%s\n", kVersion);
    exit_code = 0;
    return false;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      if (++i >= argc) {
        exit_code = usage_error("--out needs a directory argument");
        return false;
      }
      args.out_dir = argv[i];
    } else if (arg == "--threads") {
      if (++i >= argc) {
        exit_code = usage_error("--threads needs a worker count");
        return false;
      }
      try {
        args.threads = qtx::strings::parse_int32(argv[i]);
      } catch (const std::runtime_error& e) {
        exit_code = usage_error(std::string("--threads: ") + e.what());
        return false;
      }
      if (args.threads < 1) {
        exit_code = usage_error("--threads needs a positive worker count");
        return false;
      }
    } else if (arg == "--ranks") {
      if (++i >= argc) {
        exit_code = usage_error("--ranks needs a process count");
        return false;
      }
      try {
        args.ranks = qtx::strings::parse_int32(argv[i]);
      } catch (const std::runtime_error& e) {
        exit_code = usage_error(std::string("--ranks: ") + e.what());
        return false;
      }
      if (args.ranks < 1) {
        exit_code = usage_error("--ranks needs a positive process count");
        return false;
      }
    } else if (arg == "--rank-timeout") {
      if (++i >= argc) {
        exit_code = usage_error("--rank-timeout needs a seconds argument");
        return false;
      }
      try {
        args.rank_timeout = qtx::strings::parse_double(argv[i]);
      } catch (const std::runtime_error& e) {
        exit_code = usage_error(std::string("--rank-timeout: ") + e.what());
        return false;
      }
      if (!(args.rank_timeout > 0.0)) {
        exit_code = usage_error("--rank-timeout needs a positive duration");
        return false;
      }
    } else if (arg == "--set") {
      if (++i >= argc) {
        exit_code = usage_error("--set needs a KEY=VALUE argument");
        return false;
      }
      const std::string kv = argv[i];
      const std::size_t eq = kv.find('=');
      if (eq == 0 || eq == std::string::npos) {
        exit_code = usage_error("--set expects KEY=VALUE, got \"" + kv +
                                "\"");
        return false;
      }
      args.sets.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else if (arg == "--quiet") {
      args.quiet = true;
    } else if (arg == "--socket") {
      if (++i >= argc) {
        exit_code = usage_error("--socket needs a path argument");
        return false;
      }
      args.socket_path = argv[i];
    } else if (arg == "--workers") {
      if (++i >= argc) {
        exit_code = usage_error("--workers needs a thread count");
        return false;
      }
      try {
        args.workers = qtx::strings::parse_int32(argv[i]);
      } catch (const std::runtime_error& e) {
        exit_code = usage_error(std::string("--workers: ") + e.what());
        return false;
      }
      if (args.workers < 1) {
        exit_code = usage_error("--workers needs a positive thread count");
        return false;
      }
    } else if (arg == "--queue") {
      if (++i >= argc) {
        exit_code = usage_error("--queue needs a capacity argument");
        return false;
      }
      try {
        args.queue = qtx::strings::parse_int32(argv[i]);
      } catch (const std::runtime_error& e) {
        exit_code = usage_error(std::string("--queue: ") + e.what());
        return false;
      }
      if (args.queue < 1) {
        exit_code = usage_error("--queue needs a positive capacity");
        return false;
      }
    } else if (arg == "--cache-mb") {
      if (++i >= argc) {
        exit_code = usage_error("--cache-mb needs a MiB argument");
        return false;
      }
      try {
        args.cache_mb = qtx::strings::parse_double(argv[i]);
      } catch (const std::runtime_error& e) {
        exit_code = usage_error(std::string("--cache-mb: ") + e.what());
        return false;
      }
      if (args.cache_mb < 0.0) {
        exit_code = usage_error("--cache-mb cannot be negative");
        return false;
      }
    } else if (arg == "--request-timeout") {
      if (++i >= argc) {
        exit_code =
            usage_error("--request-timeout needs a seconds argument");
        return false;
      }
      try {
        args.request_timeout = qtx::strings::parse_double(argv[i]);
      } catch (const std::runtime_error& e) {
        exit_code =
            usage_error(std::string("--request-timeout: ") + e.what());
        return false;
      }
      if (!(args.request_timeout > 0.0)) {
        exit_code =
            usage_error("--request-timeout needs a positive duration");
        return false;
      }
    } else if (arg == "--shutdown") {
      args.shutdown = true;
    } else if (arg == "--stats") {
      args.stats = true;
    } else if (arg == "--trace") {
      if (++i >= argc) {
        exit_code = usage_error("--trace needs an output file argument");
        return false;
      }
      args.trace_path = argv[i];
    } else if (arg == "--metrics") {
      if (++i >= argc) {
        exit_code = usage_error("--metrics needs an output file argument");
        return false;
      }
      args.metrics_path = argv[i];
    } else if (!arg.empty() && arg[0] == '-') {
      exit_code = usage_error("unknown flag \"" + arg + "\"");
      return false;
    } else if (args.scenario_path.empty()) {
      args.scenario_path = arg;
    } else {
      exit_code = usage_error("unexpected argument \"" + arg + "\"");
      return false;
    }
  }
  return true;
}

qtx::io::Scenario load_scenario(const CliArgs& args) {
  if (args.scenario_path.empty()) {
    throw qtx::io::ScenarioError("command \"" + args.command +
                                 "\" needs a scenario file argument");
  }
  qtx::io::Scenario s = qtx::io::parse_scenario_file(args.scenario_path);
  // Deck overrides first (command-line order), then the dedicated flags —
  // so --threads still wins over a conflicting --set num_threads=...
  for (const auto& [key, value] : args.sets)
    qtx::io::apply_scenario_override(s, key, value);
  if (!args.out_dir.empty()) s.output.directory = args.out_dir;
  if (args.threads > 0) s.solver.num_threads = args.threads;
  return s;
}

qtx::io::ProgressFn progress_printer(bool quiet) {
  if (quiet) return nullptr;
  return [](const qtx::core::IterationResult& it) {
    std::printf("  iter %2d: |dSigma|/|Sigma| = %.3e  (%.2f s)\n",
                it.iteration, it.sigma_update, it.seconds);
    std::fflush(stdout);
  };
}

int cmd_run(const CliArgs& args) {
  const qtx::io::Scenario s = load_scenario(args);
  if (!args.quiet)
    std::printf("scenario \"%s\": device preset \"%s\", %d cells x %d "
                "orbitals, %d energy points\n",
                s.name.c_str(), s.device_preset.c_str(),
                s.device.num_cells, s.device.orbitals_per_puc * s.device.nu,
                s.solver.grid.n);
  if (args.ranks > 0) {
    // Multi-process path: fork the workers over the socket transport.
    // Rank 0 writes the usual files; the parent only supervises, so the
    // summary here is the launch report, not in-process observables.
    // Tracing/metrics are handled inside the workers (per-rank trace
    // partials merged after the launch; see run_scenario_ranked).
    const qtx::io::RankedOutcome ranked = qtx::io::run_scenario_ranked(
        s, args.ranks, args.rank_timeout, qtx::core::StageRegistry::global(),
        progress_printer(args.quiet), args.trace_path, args.metrics_path);
    if (!ranked.launch.ok()) {
      std::fprintf(stderr, "qtx: ranked run failed: %s\n",
                   ranked.launch.diagnostic.c_str());
      return ranked.launch.exit_code != 0 ? ranked.launch.exit_code : 1;
    }
    std::printf("ranked run complete: %d worker process%s\n", ranked.ranks,
                ranked.ranks == 1 ? "" : "es");
    if (!s.output.directory.empty())
      std::printf("rank 0 wrote results under %s\n",
                  s.output.directory.c_str());
    else
      std::printf("(no output directory configured; use --out DIR or the "
                  "[output] section)\n");
    if (!args.trace_path.empty())
      std::printf("wrote %s (merged %d rank trace%s)\n",
                  args.trace_path.c_str(), ranked.ranks,
                  ranked.ranks == 1 ? "" : "s");
    if (!args.metrics_path.empty())
      std::printf("wrote %s\n", args.metrics_path.c_str());
    return 0;
  }
  if (!args.trace_path.empty()) {
    // Full detail for an explicitly requested trace: stage spans and the
    // per-kernel la spans. Off (the default) costs one atomic load per
    // would-be span.
    qtx::obs::set_tracing_enabled(true);
    qtx::obs::set_kernel_tracing_enabled(true);
  }
  const qtx::io::RunOutcome out = qtx::io::run_scenario(
      s, qtx::core::StageRegistry::global(), progress_printer(args.quiet));
  const qtx::core::TransportResult& res = out.results.result;
  std::printf("%s after %d iteration%s (final update %.3e)\n",
              qtx::core::to_string(res.stop_reason), res.iterations,
              res.iterations == 1 ? "" : "s", res.final_update);
  std::printf("I_L = %.6e, I_R = %.6e (e/hbar per spin)\n",
              out.results.terminal_left, out.results.terminal_right);
  for (const std::string& f : out.files)
    std::printf("wrote %s\n", f.c_str());
  if (out.files.empty())
    std::printf("(no output directory configured; use --out DIR or the "
                "[output] section)\n");
  if (!args.trace_path.empty()) {
    qtx::obs::write_chrome_trace(args.trace_path);
    std::printf("wrote %s\n", args.trace_path.c_str());
  }
  if (!args.metrics_path.empty()) {
    qtx::obs::write_metrics(args.metrics_path);
    std::printf("wrote %s\n", args.metrics_path.c_str());
  }
  return 0;
}

int cmd_sweep(const CliArgs& args) {
  const qtx::io::Scenario s = load_scenario(args);
  if (!s.has_sweep()) {
    throw qtx::io::ScenarioError(
        "scenario \"" + s.name + "\" has no [sweep] section; add one or "
        "use \"qtx run\" (see docs/userguide.md, \"Sweep mode\")");
  }
  if (!args.quiet)
    std::printf("sweep \"%s\" over %zu values of \"%s\"\n", s.name.c_str(),
                s.sweep.values.size(), s.sweep.parameter.c_str());
  const qtx::io::SweepOutcome out = qtx::io::run_sweep(
      s, qtx::core::StageRegistry::global(), progress_printer(args.quiet));
  std::printf("%-14s %16s %16s %6s %10s\n", s.sweep.parameter.c_str(),
              "I_L", "I_R", "iters", "converged");
  for (const qtx::io::SweepRow& r : out.rows)
    std::printf("%-14.6g %16.6e %16.6e %6d %10s\n", r.value,
                r.terminal_left, r.terminal_right, r.iterations,
                r.converged ? "yes" : "no");
  for (const std::string& f : out.files)
    std::printf("wrote %s\n", f.c_str());
  return 0;
}

int cmd_print(const CliArgs& args) {
  const qtx::io::Scenario s = load_scenario(args);
  // Validate the physics before echoing, so "qtx print" doubles as a
  // scenario linter (same checks a run would perform, minus the solve).
  const qtx::device::Structure structure = qtx::io::make_structure(s);
  qtx::io::resolved_solver_options(s, structure).validate(
      structure.num_cells());
  std::printf("%s", qtx::io::serialize_scenario(s).c_str());
  return 0;
}

/// The server a signal handler must reach. Only one `qtx serve` runs per
/// process, and Server::request_stop() is async-signal-safe (a single
/// write(2) to its stop pipe), so a plain pointer handoff is enough.
qtx::serve::Server* g_serve_server = nullptr;

extern "C" void serve_signal_handler(int) {
  if (g_serve_server != nullptr) g_serve_server->request_stop();
}

int cmd_serve(const CliArgs& args) {
  if (args.socket_path.empty())
    return usage_error("\"qtx serve\" needs --socket PATH");
  qtx::serve::ServerOptions opt;
  opt.socket_path = args.socket_path;
  opt.workers = args.workers;
  opt.queue_capacity = args.queue;
  opt.cache_bytes =
      static_cast<std::size_t>(args.cache_mb * (1024.0 * 1024.0));
  opt.request_timeout_s = args.request_timeout;

  qtx::serve::Server server(opt);
  server.start();
  g_serve_server = &server;
  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGINT, serve_signal_handler);
  if (!args.quiet) {
    std::printf("qtx serve: listening on %s (%d worker%s, queue %d, "
                "cache %.0f MiB)\n",
                opt.socket_path.c_str(), opt.workers,
                opt.workers == 1 ? "" : "s", opt.queue_capacity,
                args.cache_mb);
    std::printf("qtx serve: stop with SIGTERM or \"qtx submit --socket %s "
                "--shutdown\"\n",
                opt.socket_path.c_str());
    std::fflush(stdout);
  }
  server.wait();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  g_serve_server = nullptr;
  const qtx::serve::ServerStats stats = server.stats();
  if (!args.quiet) {
    std::printf("qtx serve: drained — %llu request%s ok, %llu error%s; "
                "cache %llu hit%s / %llu miss%s\n",
                static_cast<unsigned long long>(stats.requests_ok),
                stats.requests_ok == 1 ? "" : "s",
                static_cast<unsigned long long>(stats.requests_error),
                stats.requests_error == 1 ? "" : "s",
                static_cast<unsigned long long>(stats.cache.hits),
                stats.cache.hits == 1 ? "" : "s",
                static_cast<unsigned long long>(stats.cache.misses),
                stats.cache.misses == 1 ? "" : "es");
  }
  return 0;
}

int cmd_submit(const CliArgs& args) {
  if (args.socket_path.empty())
    return usage_error("\"qtx submit\" needs --socket PATH");
  qtx::serve::Client client(args.socket_path);
  if (args.stats) {
    const qtx::serve::Client::Response reply = client.stats();
    if (!reply.ok) {
      std::fprintf(stderr, "qtx: serve error: %s\n", reply.error.c_str());
      return 1;
    }
    std::fwrite(reply.payload.data(), 1, reply.payload.size(), stdout);
    return 0;
  }
  if (args.shutdown) {
    if (client.shutdown()) {
      if (!args.quiet)
        std::printf("qtx submit: server at %s acknowledged shutdown\n",
                    args.socket_path.c_str());
    } else if (!args.quiet) {
      std::printf("qtx submit: nothing listening at %s (already down)\n",
                  args.socket_path.c_str());
    }
    return 0;
  }
  if (args.scenario_path.empty())
    return usage_error("\"qtx submit\" needs a scenario file (or "
                       "--shutdown)");
  std::ifstream in(args.scenario_path, std::ios::binary);
  if (!in) {
    throw qtx::io::ScenarioError("cannot open scenario file \"" +
                                 args.scenario_path + "\"");
  }
  std::ostringstream deck;
  deck << in.rdbuf();
  const qtx::serve::Client::Response reply =
      client.submit(deck.str(), args.scenario_path, args.sets);
  if (!reply.ok) {
    std::fprintf(stderr, "qtx: serve error: %s\n", reply.error.c_str());
    return 1;
  }
  std::fwrite(reply.payload.data(), 1, reply.payload.size(), stdout);
  return 0;
}

int cmd_list_backends() {
  const auto backends = qtx::core::StageRegistry::global().describe();
  std::printf("%-10s %-20s %s\n", "kind", "key", "description");
  std::printf("%-10s %-20s %s\n", "----", "---", "-----------");
  for (const qtx::core::BackendDescription& b : backends)
    std::printf("%-10s %-20s %s\n", b.kind.c_str(), b.key.c_str(),
                b.description.c_str());
  return 0;
}

int cmd_list_presets() {
  std::printf("%-18s %s\n", "preset", "description");
  std::printf("%-18s %s\n", "------", "-----------");
  for (const qtx::device::DevicePreset& p : qtx::device::device_presets())
    std::printf("%-18s %s\n", p.name.c_str(), p.description.c_str());
  std::printf("\nOverride any parameter per-key in the scenario's [device] "
              "section (keys: ");
  const auto keys = qtx::device::structure_param_keys();
  for (std::size_t i = 0; i < keys.size(); ++i)
    std::printf("%s%s", i ? ", " : "", keys[i].c_str());
  std::printf(").\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  int exit_code = 0;
  if (!parse_cli(argc, argv, args, exit_code)) return exit_code;
  if (args.ranks > 0 && args.command != "run")
    return usage_error("--ranks is only valid with \"qtx run\"");
  if (!args.socket_path.empty() && args.command != "serve" &&
      args.command != "submit")
    return usage_error(
        "--socket is only valid with \"qtx serve\" or \"qtx submit\"");
  if (args.shutdown && args.command != "submit")
    return usage_error("--shutdown is only valid with \"qtx submit\"");
  if (args.stats && args.command != "submit")
    return usage_error("--stats is only valid with \"qtx submit\"");
  if (args.stats && args.shutdown)
    return usage_error("--stats and --shutdown are mutually exclusive");
  if (!args.trace_path.empty() && args.command != "run")
    return usage_error("--trace is only valid with \"qtx run\"");
  if (!args.metrics_path.empty() && args.command != "run")
    return usage_error("--metrics is only valid with \"qtx run\"");
  try {
    if (args.command == "run") return cmd_run(args);
    if (args.command == "sweep") return cmd_sweep(args);
    if (args.command == "print") return cmd_print(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "submit") return cmd_submit(args);
    if (args.command == "list-backends") return cmd_list_backends();
    if (args.command == "list-presets") return cmd_list_presets();
    return usage_error("unknown command \"" + args.command + "\"");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qtx: error: %s\n", e.what());
    return 1;
  }
}
