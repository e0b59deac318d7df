// Serve-daemon throughput: what the result cache buys over cold solves,
// measured through the real wire path (an in-process serve::Server plus
// the blocking serve::Client — the same code `qtx serve` / `qtx submit`
// run).
//
// Two phases, one fresh daemon each, R identical mini-deck requests per
// phase:
//
//   cold    cache off — every request is a full solve
//   cached  cache on  — requests 2..R are cache hits
//
// Emits BENCH_serve_throughput.json (current working directory; gated by
// bench/check_bench.py against bench/references.json) and exits non-zero
// when a gate fails. Correctness gates (every response ok, every stripped
// payload bit-identical to a cold `qtx run`, no cache hit in the cold
// phase, a positive hit rate in the cached one) always apply; the
// wall-clock speedup gate only binds on multi-core hosts, where timing is
// meaningful.

#include <cstdio>
#include <string>
#include <vector>

#include <cstdlib>
#include <unistd.h>

#include <chrono>

#include "io/result_writer.hpp"
#include "io/scenario_runner.hpp"
#include "par/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

using namespace qtx;

namespace {

/// Small-but-real deck (matches tests/test_serve.cpp): 2 quickstart
/// cells, 8 energies, 2 SCBA iterations.
constexpr const char* kMiniDeck =
    "[device]\n"
    "preset = quickstart\n"
    "num_cells = 2\n"
    "\n"
    "[solver]\n"
    "grid = -2.0 2.0 8\n"
    "eta = 0.05\n"
    "max_iterations = 2\n"
    "tolerance = 1e-3\n";

constexpr int kRequests = 6;  ///< R per phase

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Phase {
  std::string name;
  double seconds = 0.0;            ///< wall time of the R submissions
  double scenarios_per_second = 0.0;
  serve::ServerStats stats;
  bool all_ok = true;
  bool identical = true;  ///< every stripped payload == the cold reference
};

/// Run one daemon configuration and push R requests through it.
Phase run_phase(const std::string& name, const std::string& socket_dir,
                std::size_t cache_bytes,
                const std::string& reference_stripped) {
  Phase phase;
  phase.name = name;

  serve::ServerOptions opt;
  opt.socket_path = socket_dir + "/" + name + ".sock";
  opt.workers = 1;  // serial phase — throughput here measures reuse, not cores
  opt.cache_bytes = cache_bytes;
  serve::Server server(opt);
  server.start();

  const serve::Client client(opt.socket_path);
  const double t0 = now_seconds();
  for (int i = 0; i < kRequests; ++i) {
    const serve::Client::Response r = client.submit(kMiniDeck);
    if (!r.ok) {
      std::printf("  [%s] request %d FAILED: %s\n", name.c_str(), i,
                  r.error.c_str());
      phase.all_ok = false;
      continue;
    }
    if (serve::strip_volatile_sections(r.payload) != reference_stripped) {
      std::printf("  [%s] request %d diverged from the cold reference\n",
                  name.c_str(), i);
      phase.identical = false;
    }
  }
  phase.seconds = now_seconds() - t0;
  server.stop();
  phase.stats = server.stats();
  phase.scenarios_per_second =
      phase.seconds > 0.0 ? kRequests / phase.seconds : 0.0;
  std::printf("%-8s %8.3f s  %8.2f scenarios/s  (cache hits %lld)\n",
              name.c_str(), phase.seconds, phase.scenarios_per_second,
              phase.stats.cache.hits);
  return phase;
}

}  // namespace

int main() {
  std::printf("=== serve throughput: cold vs result cache ===\n");
  std::printf("(%d requests per phase, mini quickstart deck)\n\n", kRequests);

  char socket_dir[] = "/tmp/qtx_bench_serve_XXXXXX";
  if (::mkdtemp(socket_dir) == nullptr) {
    std::printf("cannot create socket directory\n");
    return 1;
  }

  // The reference every served payload must reproduce: a cold in-process
  // run of the same deck, normalized the way Server::solve normalizes.
  io::Scenario s = io::parse_scenario_text(kMiniDeck, "request.ini");
  if (s.name.empty()) s.name = io::scenario_path_stem("request.ini");
  s.output = io::OutputSpec{};
  s.output.directory.clear();
  const io::RunOutcome ref =
      io::run_scenario(s, core::StageRegistry::global(), nullptr);
  const std::string reference_stripped = serve::strip_volatile_sections(
      io::render_result_json(s, ref.resolved, ref.results));

  const Phase cold = run_phase("cold", socket_dir, 0, reference_stripped);
  const Phase cached =
      run_phase("cached", socket_dir, 64ull << 20, reference_stripped);
  ::rmdir(socket_dir);

  const double cache_hit_rate =
      static_cast<double>(cached.stats.cache.hits) / kRequests;
  const double cached_over_cold =
      cold.scenarios_per_second > 0.0
          ? cached.scenarios_per_second / cold.scenarios_per_second
          : 0.0;
  const int hw = par::ThreadPool::hardware_threads();

  std::printf("\ncache hit rate %.2f, cached/cold %.2fx (%d hardware "
              "threads)\n",
              cache_hit_rate, cached_over_cold, hw);

  // Gates. Counts and bit-identity always bind; the wall-clock speedup
  // only on multi-core hosts (a loaded single-core box makes any timing
  // ratio noise). check_bench.py applies the same rule to
  // bench/references.json.
  struct GateRow {
    const char* name;
    bool pass;
    bool wall_time;
  };
  const std::vector<GateRow> gates = {
      {"all_requests_ok", cold.all_ok && cached.all_ok, false},
      {"payloads_bit_identical", cold.identical && cached.identical, false},
      {"cold_phase_never_cached", cold.stats.cache.hits == 0, false},
      {"cache_hit_rate_positive", cache_hit_rate > 0.0, false},
      {"cached_at_least_cold", cached_over_cold >= 1.0, true},
  };

  bool pass = true;
  for (const GateRow& g : gates) {
    const bool binding = !g.wall_time || hw >= 2;
    std::printf("gate %-26s %s%s\n", g.name, g.pass ? "PASS" : "FAIL",
                binding ? "" : " (not binding: single core)");
    if (binding && !g.pass) pass = false;
  }

  FILE* json = std::fopen("BENCH_serve_throughput.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"serve_throughput\",\n"
                 "  \"requests_per_phase\": %d,\n"
                 "  \"hardware_threads\": %d,\n"
                 "  \"cold_scenarios_per_second\": %.6f,\n"
                 "  \"cached_scenarios_per_second\": %.6f,\n"
                 "  \"cached_over_cold\": %.6f,\n"
                 "  \"cache_hit_rate\": %.6f,\n"
                 "  \"payloads_bit_identical\": %s,\n"
                 "  \"gates\": [\n",
                 kRequests, hw, cold.scenarios_per_second,
                 cached.scenarios_per_second, cached_over_cold,
                 cache_hit_rate,
                 cold.identical && cached.identical ? "true" : "false");
    for (std::size_t i = 0; i < gates.size(); ++i) {
      std::fprintf(json,
                   "    {\"name\": \"%s\", \"pass\": %s, "
                   "\"wall_time\": %s}%s\n",
                   gates[i].name, gates[i].pass ? "true" : "false",
                   gates[i].wall_time ? "true" : "false",
                   i + 1 < gates.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_serve_throughput.json\n");
  }
  return pass ? 0 : 1;
}
