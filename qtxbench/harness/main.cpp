// qtxbench — the repository's end-to-end benchmark harness.
//
//   qtx_bench --workload quickstart|wide-ranks|serve-iv --seed N
//             --seconds S --trace 0|1 [--quick]
//
// Run from the repository root: it reads scenarios/ and tests/golden/ and
// keeps its working files (and daemon sockets) under .bench_run/.
//
// Drives the public entry points behind `qtx run` (io::run_scenario),
// `qtx run --ranks` (par::launch_ranks + io::run_scenario over the rank's
// Comm) and `qtx serve`/`qtx submit` (serve::Server + serve::Client),
// checks every output, prints every metric with its unit and sample count,
// and ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics from untraced runs;
// --trace 1 alternates two untraced and two traced passes of identical work
// and reports the per-layer metrics (see qtxbench/NOTES.md for every
// definition).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flops.hpp"
#include "core/perf_model.hpp"
#include "io/result_writer.hpp"
#include "io/scenario_runner.hpp"
#include "par/launcher.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tracing.hpp"

namespace fs = std::filesystem;
using namespace qtx;

namespace qtxbench {
namespace {

// ---------------------------------------------------------------------------
// Small helpers: statistics, files, numbers in text.
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Peak resident set of this process, MiB.
double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The number after `"key": ` in a results.json document (one value per
/// line, io::JsonWriter layout); NaN when absent.
double json_number(const std::string& doc, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = doc.find(needle);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(doc.c_str() + at + needle.size(), nullptr);
}

bool json_true(const std::string& doc, const std::string& key) {
  return doc.find("\"" + key + "\": true") != std::string::npos;
}

/// Seconds on the steady clock (now_s()) back to its nanosecond ticks.
std::int64_t to_ns(double t) {
  return static_cast<std::int64_t>(std::llround(t * 1e9));
}

/// Record key of a FlopLedger phase ("G: OBC" -> "flops:G:_OBC"); record
/// keys carry no whitespace.
std::string flop_key(std::string phase) {
  std::replace(phase.begin(), phase.end(), ' ', '_');
  return "flops:" + phase;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Report: every metric with unit and sample count, failures, JSON line.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long samples = 0;
};

class Report {
 public:
  void attempt() { ++attempted_; }
  void fail(const std::string& what) {
    ++failed_;
    std::printf("FAIL %s\n", what.c_str());
  }
  /// Metric that goes into the JSON line.
  void add(const std::string& name, double value, const std::string& unit,
           long samples) {
    if (!std::isfinite(value)) {
      fail("metric " + name + " is not finite");
      value = 0.0;
    }
    json_.push_back({name, value, unit, samples});
    print_line(json_.back());
  }
  /// Metric printed for the reader only (workload-specific extras).
  void info(const std::string& name, double value, const std::string& unit,
            long samples) {
    print_line({name, value, unit, samples});
  }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }

  void print_json() const {
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                failed_ == 0 ? "true" : "false", std::max(attempted_, 1L),
                failed_);
    for (std::size_t i = 0; i < json_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", json_[i].name.c_str(), json_[i].value,
                  json_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  static void print_line(const Metric& m) {
    std::printf("metric %-22s %.6g %s (n=%ld)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::vector<Metric> json_;
  long attempted_ = 0;
  long failed_ = 0;
};

// ---------------------------------------------------------------------------
// Solve records: what a solving process reports back to the harness. Each
// child writes one text file (numbers as hex floats, so they round-trip
// exactly) plus its spans; the parent reads and merges them.
// ---------------------------------------------------------------------------

struct Record {
  std::map<std::string, std::vector<double>> v;
  std::vector<Span> spans;

  double at(const std::string& key, std::size_t i = 0) const {
    const auto it = v.find(key);
    return (it == v.end() || it->second.size() <= i) ? std::nan("")
                                                      : it->second[i];
  }
  const std::vector<double>& vec(const std::string& key) const {
    static const std::vector<double> empty;
    const auto it = v.find(key);
    return it == v.end() ? empty : it->second;
  }
};

void write_record(const Record& r, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (const auto& [key, values] : r.v) {
    std::fprintf(f, "v %s %zu", key.c_str(), values.size());
    for (const double x : values) std::fprintf(f, " %a", x);
    std::fputc('\n', f);
  }
  for (const Span& s : r.spans) {
    std::fprintf(f, "s %s %" PRId64 " %" PRId64 " %" PRIu64 " %" PRIu64
                    " %d %d\n",
                 s.name.c_str(), s.start_ns, s.end_ns, s.id, s.parent, s.run,
                 s.tid);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

Record read_record(const std::string& path, int pid) {
  Record r;
  std::istringstream in(read_file(path));
  std::string tag;
  while (in >> tag) {
    if (tag == "v") {
      std::string key, num;
      std::size_t n = 0;
      in >> key >> n;
      std::vector<double>& out = r.v[key];
      for (std::size_t i = 0; i < n && in >> num; ++i)
        out.push_back(std::strtod(num.c_str(), nullptr));
    } else if (tag == "s") {
      Span s;
      in >> s.name >> s.start_ns >> s.end_ns >> s.id >> s.parent >> s.run >>
          s.tid;
      s.pid = pid;
      r.spans.push_back(std::move(s));
    } else {
      throw std::runtime_error("malformed record " + path);
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// One launch: parse a deck in this process, fork 1 or N solving processes
// through par::launch_ranks, and collect their records. With ranks > 1 the
// deck runs sharded over the launcher's socket Comm (`qtx run --ranks`).
// ---------------------------------------------------------------------------

struct Launch {
  bool ok = false;
  std::string diagnostic;
  double t0 = 0.0;  ///< before deck parse
  double t_launch = 0.0;
  std::vector<Record> ranks;
  std::vector<Span> spans;  ///< harness spans + every rank's, pid-tagged

  double run_s() const { return ranks.empty() ? 0.0 : ranks[0].at("t_ret") - t0; }
  /// Deck parse (and fork) until SCBA iteration 1 begins on rank 0.
  double setup_s() const {
    return ranks[0].at("t_iter", 0) - ranks[0].at("iter_s", 0) - t0;
  }
  /// Wall time per SCBA iteration of rank 0's loop.
  double iter_s() const {
    const std::vector<double>& it = ranks[0].vec("iter_s");
    double s = 0.0;
    for (const double x : it) s += x;
    return it.empty() ? 0.0 : s / static_cast<double>(it.size());
  }
  double rss_mb() const {
    double m = 0.0;
    for (const Record& r : ranks) m = std::max(m, r.at("rss_mb"));
    return m;
  }
};

const char* const kObservables[] = {"transmission", "dos", "density",
                                    "current_left", "current_right",
                                    "terminal", "sigma_updates"};

Launch launch_solve(const std::string& deck_text, const std::string& deck_name,
                    int ranks, bool traced, const std::string& out_dir,
                    int run_id) {
  Launch L;
  set_tracing(traced);
  set_global_run(run_id);
  L.t0 = now_s();
  io::Scenario s;
  {
    ScopedSpan span("io.parse");
    s = io::parse_scenario_text(deck_text, deck_name);
  }
  if (s.name.empty()) s.name = io::scenario_path_stem(deck_name);
  s.output.directory = out_dir;
  if (ranks > 1) s.solver.comm_backend = "socket";  // as `qtx run --ranks`

  const std::string rec_prefix = out_dir + "/rec";
  std::fflush(stdout);
  L.t_launch = now_s();
  const par::LaunchReport report =
      par::launch_ranks(ranks, 150.0, [&](par::Comm& comm) {
        Record rec;
        rec.v["t_start"] = {now_s()};
        // Drop what the parent had buffered before fork; this process
        // reports only its own work.
        collect_spans();
        counters().reset();
        FlopLedger::reset();
        std::vector<double> t_iter, iter_s;
        const io::ProgressFn hook = [&](const core::IterationResult& r) {
          t_iter.push_back(now_s());
          iter_s.push_back(r.seconds);
        };
        TracedComm traced_comm(comm);
        par::Comm* c = nullptr;
        if (ranks > 1) c = traced ? static_cast<par::Comm*>(&traced_comm) : &comm;
        const core::StageRegistry& reg =
            traced ? traced_registry() : core::StageRegistry::global();
        const double t_call = now_s();
        const io::RunOutcome out = io::run_scenario(s, reg, hook, nullptr, c);
        const double t_ret = now_s();

        rec.v["t_call"] = {t_call};
        rec.v["t_ret"] = {t_ret};
        rec.v["t_iter"] = t_iter;
        rec.v["iter_s"] = iter_s;
        rec.v["rss_mb"] = {peak_rss_mb()};
        // Bytes of the deterministic part of results.json (wall-time
        // sections stripped), so the count repeats exactly.
        double bytes = 0.0;
        for (const std::string& f : out.files) {
          if (fs::path(f).filename() == "results.json")
            bytes = static_cast<double>(
                serve::strip_volatile_sections(read_file(f)).size());
        }
        rec.v["out_bytes"] = {bytes};
        const io::ScenarioResults& res = out.results;
        rec.v["transmission"] = res.transmission;
        rec.v["dos"] = res.dos;
        rec.v["density"] = res.density;
        rec.v["current_left"] = res.current_left;
        rec.v["current_right"] = res.current_right;
        rec.v["terminal"] = {res.terminal_left, res.terminal_right};
        std::vector<double>& upd = rec.v["sigma_updates"];
        for (const core::IterationResult& it : res.result.history)
          upd.push_back(it.sigma_update);
        rec.v["iterations"] = {static_cast<double>(res.result.iterations)};
        for (const auto& [phase, flops] : FlopLedger::by_phase())
          rec.v[flop_key(phase)] = {static_cast<double>(flops)};
        for (const auto& [key, value] : counters().snapshot())
          rec.v["count:" + key] = {value};
        if (traced) {
          // SCBA phases as the progress hook saw them: construction, each
          // iteration, then observables + result files.
          if (!t_iter.empty()) {
            record_span("core.construct", to_ns(t_call),
                        to_ns(t_iter[0] - iter_s[0]));
            for (std::size_t i = 0; i < t_iter.size(); ++i)
              record_span("core.iteration", to_ns(t_iter[i] - iter_s[i]),
                          to_ns(t_iter[i]));
            record_span("core.post", to_ns(t_iter.back()), to_ns(t_ret));
          }
          rec.spans = collect_spans();
        }
        write_record(rec, rec_prefix + std::to_string(comm.rank()));
      });
  L.ok = report.ok();
  L.diagnostic = report.diagnostic;
  if (!L.ok) return L;
  double last_start = L.t_launch;
  for (int r = 0; r < ranks; ++r) {
    L.ranks.push_back(read_record(rec_prefix + std::to_string(r), r + 1));
    last_start = std::max(last_start, L.ranks.back().at("t_start"));
  }
  if (traced) {
    record_span("par.launch", to_ns(L.t_launch), to_ns(last_start));
    L.spans = collect_spans();
    for (Record& r : L.ranks) {
      L.spans.insert(L.spans.end(), r.spans.begin(), r.spans.end());
      r.spans.clear();
    }
  }
  set_tracing(false);
  return L;
}

/// Bitwise equality of every observable two solves reported.
bool same_observables(const Record& a, const Record& b) {
  for (const char* key : kObservables) {
    const std::vector<double>& x = a.vec(key);
    const std::vector<double>& y = b.vec(key);
    if (x.size() != y.size() ||
        (!x.empty() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0))
      return false;
  }
  return !a.vec("transmission").empty();
}

// ---------------------------------------------------------------------------
// Per-layer numbers of one traced pass, derived from its spans.
// ---------------------------------------------------------------------------

struct Pass {
  std::vector<Span> spans;
  std::map<std::string, double> values;  ///< counters, flops, workload extras
  double wall_s = 0.0;                   ///< untraced-comparable pass time
};

struct LayerMetric {
  const char* name;
  const char* unit;
  bool count;  ///< must repeat exactly for one seed
};

const LayerMetric kLayerMetrics[] = {
    {"io.parse_s", "s", false},        {"io.out_bytes", "B", true},
    {"core.construct_s", "s", false},  {"core.self_s", "s", false},
    {"core.post_s", "s", false},       {"core.iterations", "count", true},
    {"obc.self_s", "s", false},        {"obc.calls", "count", true},
    {"obc.memo_ratio", "ratio", true}, {"obc.fpi_per_call", "count", true},
    {"rgf.self_s", "s", false},        {"rgf.calls", "count", true},
    {"la.gemm_s", "s", false},         {"la.gemm_calls", "count", true},
    {"la.lu_s", "s", false},           {"la.lu_calls", "count", true},
    {"la.gflops", "GFLOP/s", false},   {"la.flops_per_byte", "flop/B", true},
    {"la.pct_peak", "%", false},       {"sigma.self_s", "s", false},
    {"flops.p_fft", "flop", true},     {"flops.sigma_fft", "flop", true},
    {"mix.self_s", "s", false},        {"exec.wall_s", "s", false},
    {"exec.busy_s", "s", false},       {"exec.idle_frac", "ratio", false},
    {"comm.bytes_per_rank", "B", true}, {"comm.msgs_per_rank", "count", true},
    {"comm.send_s", "s", false},       {"comm.wait_s", "s", false},
    {"par.launch_s", "s", false},      {"serve.hit_ratio", "ratio", true},
    {"serve.warm_ratio", "ratio", true}, {"serve.queue_s", "s", false},
    {"serve.solve_s", "s", false},     {"serve.overhead_s", "s", false},
    {"flops.total", "flop", true},     {"flops.g_obc", "flop", true},
    {"flops.g_rgf", "flop", true},     {"flops.w_rgf", "flop", true},
    {"flops.w_assembly", "flop", true},
};

/// Decorated layers: spans the registry/Comm wrappers record.
bool decorated(const std::string& name) {
  return name == "obc" || name == "rgf" || name == "sigma" || name == "mix" ||
         name == "exec" || name.rfind("la.", 0) == 0 ||
         name.rfind("comm.", 0) == 0;
}

/// Layer metrics of one pass. Self time = span time minus its children's;
/// core's self time is the SCBA loop time no decorated span covers (the
/// core.iteration / core.loop intervals minus their top-level decorated
/// spans, plus energy-batch time outside OBC/RGF, i.e. assembly). Times
/// are totals over every thread and rank of the pass.
std::map<std::string, double> layer_values(Pass& pass, double host_peak) {
  std::map<std::pair<int, std::uint64_t>, double> child_time;
  for (const Span& s : pass.spans)
    if (s.parent != 0) child_time[{s.pid, s.parent}] += s.seconds();
  std::map<std::string, double> total, self, calls;
  for (const Span& s : pass.spans) {
    total[s.name] += s.seconds();
    const auto it = child_time.find({s.pid, s.id});
    self[s.name] += s.seconds() - (it == child_time.end() ? 0.0 : it->second);
    calls[s.name] += 1.0;
  }
  double loop_self = 0.0;
  for (const Span& c : pass.spans) {
    if (c.name != "core.iteration" && c.name != "core.loop") continue;
    // Overlap rather than containment: the hook-derived iteration bounds
    // can trail the real ones by the callback latency.
    std::int64_t covered = 0;
    for (const Span& s : pass.spans) {
      if (s.pid == c.pid && s.tid == c.tid && s.parent == 0 &&
          decorated(s.name))
        covered += std::max<std::int64_t>(
            0, std::min(s.end_ns, c.end_ns) - std::max(s.start_ns, c.start_ns));
    }
    loop_self += c.seconds() - 1e-9 * static_cast<double>(covered);
  }
  std::map<std::string, double>& v = pass.values;
  auto get = [&v](const std::string& k) {
    const auto it = v.find(k);
    return it == v.end() ? 0.0 : it->second;
  };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double ranks = std::max(1.0, get("ranks"));
  const double obc_calls = get("count:obc_direct") + get("count:obc_memoized");
  const double la_flops = get("count:gemm_flops") + get("count:lu_flops");
  const double la_bytes = get("count:gemm_bytes") + get("count:lu_bytes");
  const double la_s = total["la.gemm"] + total["la.lu"];
  const double gflops = ratio(la_flops, la_s) * 1e-9;
  const double exec_wall = total["exec"];
  const double exec_busy = total["exec.batch"];
  double flops_total = 0.0, w_assembly = 0.0;
  for (const auto& [k, x] : v) {
    if (k.rfind("flops:", 0) != 0) continue;
    flops_total += x;
    if (k.rfind(flop_key("W: Assembly"), 0) == 0) w_assembly += x;
  }
  return {
      {"io.parse_s", total["io.parse"]},
      {"io.out_bytes", get("out_bytes")},
      {"core.construct_s", total["core.construct"]},
      {"core.self_s", loop_self + self["exec.batch"]},
      {"core.post_s", total["core.post"]},
      {"core.iterations", get("iterations")},
      {"obc.self_s", self["obc"]},
      {"obc.calls", calls["obc"]},
      {"obc.memo_ratio", ratio(get("count:obc_memoized"), obc_calls)},
      {"obc.fpi_per_call", ratio(get("count:obc_fpi"), obc_calls)},
      {"rgf.self_s", self["rgf"]},
      {"rgf.calls", calls["rgf"]},
      {"la.gemm_s", total["la.gemm"]},
      {"la.gemm_calls", calls["la.gemm"]},
      {"la.lu_s", total["la.lu"]},
      {"la.lu_calls", calls["la.lu"]},
      {"la.gflops", gflops},
      {"la.flops_per_byte", ratio(la_flops, la_bytes)},
      {"la.pct_peak", ratio(100.0 * gflops, host_peak)},
      {"sigma.self_s", self["sigma"]},
      {"flops.p_fft", get(flop_key("Other: P-FFT"))},
      {"flops.sigma_fft", get(flop_key("Other: Sigma-FFT"))},
      {"mix.self_s", self["mix"]},
      {"exec.wall_s", exec_wall},
      {"exec.busy_s", exec_busy},
      {"exec.idle_frac",
       exec_wall > 0.0
           ? std::max(0.0, 1.0 - exec_busy / (exec_wall * std::max(
                                                  1.0, get("threads"))))
           : 0.0},
      {"comm.bytes_per_rank", get("count:comm_bytes") / ranks},
      {"comm.msgs_per_rank", get("count:comm_msgs") / ranks},
      {"comm.send_s", total["comm.send"]},
      {"comm.wait_s", total["comm.wait"]},
      {"par.launch_s", total["par.launch"]},
      {"serve.hit_ratio", get("serve.hit_ratio")},
      {"serve.warm_ratio", get("serve.warm_ratio")},
      {"serve.queue_s", get("serve.queue_s")},
      {"serve.solve_s", get("serve.solve_s")},
      {"serve.overhead_s", get("serve.overhead_s")},
      {"flops.total", flops_total},
      {"flops.g_obc", get(flop_key("G: OBC"))},
      {"flops.g_rgf", get(flop_key("G: RGF"))},
      {"flops.w_rgf", get(flop_key("W: RGF"))},
      {"flops.w_assembly", w_assembly},
  };
}

/// Report the per-layer metrics of two traced passes of identical work
/// (times: their mean; counts: must be equal), plus trace.overhead against
/// the untraced pass, and export pass 1's spans for Perfetto.
void report_layers(Report& rep, Pass& p1, Pass& p2, double untraced_s,
                   const std::string& trace_path) {
  const double peak = core::measure_host_peak().fma_gflops;
  const std::map<std::string, double> a = layer_values(p1, peak);
  const std::map<std::string, double> b = layer_values(p2, peak);
  write_chrome_trace(p1.spans, trace_path);
  std::printf("trace: %zu spans written to %s\n", p1.spans.size(),
              trace_path.c_str());
  for (const LayerMetric& m : kLayerMetrics) {
    const double x = a.at(m.name), y = b.at(m.name);
    if (m.count && x != y)
      rep.fail(std::string("count ") + m.name + " differs between traced "
               "passes: " + std::to_string(x) + " vs " + std::to_string(y));
    rep.add(m.name, m.count ? x : 0.5 * (x + y), m.unit, 2);
  }
  rep.add("trace.overhead",
          untraced_s > 0.0 ? 0.5 * (p1.wall_s + p2.wall_s) / untraced_s - 1.0
                           : 0.0,
          "ratio", 2);
}

/// Pass values of a forked launch (summed over ranks; both forked decks run
/// one energy thread per process).
Pass pass_from_launch(Launch& L) {
  Pass p;
  p.spans = std::move(L.spans);
  for (const Record& r : L.ranks) {
    for (const auto& [k, vals] : r.v) {
      if ((k.rfind("flops:", 0) == 0 || k.rfind("count:", 0) == 0) &&
          !vals.empty())
        p.values[k] += vals[0];
    }
    p.values["out_bytes"] += r.at("out_bytes");
  }
  p.values["iterations"] = L.ranks[0].at("iterations");
  p.values["ranks"] = static_cast<double>(L.ranks.size());
  p.values["threads"] = 1;
  p.wall_s = L.run_s();
  return p;
}

// ---------------------------------------------------------------------------
// Workload inputs.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
};

struct Context {
  Options opt;
  std::string work;   ///< working directory of this invocation
  std::string trace;  ///< Chrome trace output path
  int runs = 0;
  /// A fresh output directory and run id for the next launch.
  std::pair<std::string, int> next_run() {
    ++runs;
    const std::string d = work + "/run" + std::to_string(runs);
    fs::create_directories(d);
    return {d, runs};
  }
};

/// Golden comparison of a quickstart solve, the way tests/test_golden.cpp
/// compares: 1e-12 relative with an absolute floor of the same size.
std::string golden_mismatch(const Record& r, const std::string& golden_dir) {
  auto read_golden = [&](const std::string& name) {
    std::istringstream in(read_file(golden_dir + "/" + name + ".txt"));
    std::vector<double> out;
    std::string line;
    while (std::getline(in, line))
      if (!line.empty() && line[0] != '#')
        out.push_back(std::strtod(line.c_str(), nullptr));
    return out;
  };
  std::vector<double> currents = r.vec("terminal");
  for (const double x : r.vec("current_left")) currents.push_back(x);
  const std::pair<const char*, std::vector<double>> checks[] = {
      {"quickstart_transmission", r.vec("transmission")},
      {"quickstart_density", r.vec("density")},
      {"quickstart_current", currents},
      {"quickstart_dos", r.vec("dos")},
      {"quickstart_sigma_updates", r.vec("sigma_updates")},
  };
  for (const auto& [name, got] : checks) {
    const std::vector<double> want = read_golden(name);
    if (got.size() != want.size()) return std::string(name) + " shape";
    for (std::size_t i = 0; i < got.size(); ++i)
      if (!(std::abs(got[i] - want[i]) <= 1e-12 * (1.0 + std::abs(want[i]))))
        return std::string(name) + " entry " + std::to_string(i);
  }
  return "";
}

/// The wide-ranks device: 32-orbital blocks (orbitals_per_puc = 16, two
/// orbital groups per cell) with an onsite-disorder realisation drawn from
/// the benchmark seed.
std::string wide_deck(std::uint64_t seed, bool quick) {
  std::ostringstream d;
  d << "[device]\n"
       "preset = quickstart\n"
       "num_cells = 4\n"
       "orbitals_per_puc = 16\n"
       "onsite_disorder_ev = 0.05\n"
       "seed = " << (seed % 1000000007ull) + 1 << "\n\n"
       "[solver]\n"
       "grid = -6.0 6.0 " << (quick ? 4 : 8) << "\n"
       "eta = 0.02\n"
       "mu_reference = conduction-min\n"
       "mu_left = 0.3\n"
       "mu_right = 0.1\n"
       "gw_scale = 0.3\n"
       "mixing = 0.4\n"
       "max_iterations = " << (quick ? 1 : 2) << "\n"
       "tolerance = 1e-9\n";
  return d.str();
}

/// One serve-iv deck: a 2-cell quickstart device at one bias/gate point,
/// solved on a 2-thread energy pipeline.
std::string serve_deck(int bias_mv, int gate_mv) {
  std::ostringstream d;
  d << "[device]\n"
       "preset = quickstart\n"
       "num_cells = 2\n\n"
       "[solver]\n"
       "grid = -2.0 2.0 6\n"
       "eta = 0.05\n"
       "mu_reference = conduction-min\n"
       "mu_left = " << fmt(0.05 + 1e-3 * bias_mv) << "\n"
       "mu_right = 0.05\n"
       "cell_potential = " << fmt(1e-3 * gate_mv) << " " << fmt(1e-3 * gate_mv)
    << "\n"
       "gw_scale = 0.3\n"
       "mixing = 0.4\n"
       "max_iterations = 2\n"
       "tolerance = 1e-9\n"
       "num_threads = 2\n";
  return d.str();
}

/// Seeded I-V request stream: new (bias, gate) points, with about one
/// request in four repeating an earlier point (a result-cache hit).
class IvStream {
 public:
  explicit IvStream(std::uint64_t seed) : rng_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::string next() {
    if (!decks_.empty() && rng_() % 4 == 0)
      return decks_[rng_() % decks_.size()];
    for (;;) {
      const int bias = static_cast<int>(rng_() % 401);        // 0..400 mV
      const int gate = static_cast<int>(rng_() % 201) - 100;  // ±100 mV
      if (points_.insert({bias, gate}).second) {
        decks_.push_back(serve_deck(bias, gate));
        return decks_.back();
      }
    }
  }

 private:
  std::mt19937_64 rng_;
  std::set<std::pair<int, int>> points_;
  std::vector<std::string> decks_;
};

// ---------------------------------------------------------------------------
// quickstart and wide-ranks: forked solves.
// ---------------------------------------------------------------------------

bool check_launch(Report& rep, const Launch& L, const std::string& what) {
  rep.attempt();
  if (!L.ok) {
    rep.fail(what + ": " + L.diagnostic);
    return false;
  }
  return true;
}

void run_quickstart(Context& ctx, Report& rep) {
  const std::string deck_path = "scenarios/quickstart.ini";
  const std::string deck = read_file(deck_path);
  const std::string golden = "tests/golden";
  auto solve = [&](bool traced) {
    const auto [dir, id] = ctx.next_run();
    Launch L = launch_solve(deck, deck_path, 1, traced, dir, id);
    if (check_launch(rep, L, "quickstart solve")) {
      const std::string bad = golden_mismatch(L.ranks[0], golden);
      if (!bad.empty()) rep.fail("quickstart golden mismatch: " + bad);
    }
    return L;
  };
  if (ctx.opt.trace) {
    Launch u1 = solve(false);
    Launch t1 = solve(true);
    Launch u2 = solve(false);
    Launch t2 = solve(true);
    if (!u1.ok || !t1.ok || !u2.ok || !t2.ok) return;
    Pass p1 = pass_from_launch(t1), p2 = pass_from_launch(t2);
    report_layers(rep, p1, p2, 0.5 * (u1.run_s() + u2.run_s()), ctx.trace);
    return;
  }
  std::vector<double> run_s, setup_s, iter_s, rss;
  const double t_start = now_s();
  const std::size_t min_samples = ctx.opt.quick ? 1 : 3;
  while (run_s.size() < min_samples || now_s() - t_start < ctx.opt.seconds) {
    Launch L = solve(false);
    if (!L.ok) break;
    run_s.push_back(L.run_s());
    setup_s.push_back(L.setup_s());
    iter_s.push_back(L.iter_s());
    rss.push_back(L.rss_mb());
  }
  const long n = static_cast<long>(run_s.size());
  rep.add("setup_s", median(setup_s), "s", n);
  rep.add("run_s", median(run_s), "s", n);
  rep.add("iter_s", median(iter_s), "s", n);
  rep.add("rss_mb", median(rss), "MiB", n);
}

void run_wide_ranks(Context& ctx, Report& rep) {
  const std::string deck = wide_deck(ctx.opt.seed, ctx.opt.quick);
  constexpr int kRanks = 2;
  auto solve = [&](int ranks, bool traced) {
    const auto [dir, id] = ctx.next_run();
    return launch_solve(deck, "wide-ranks.ini", ranks, traced, dir, id);
  };
  // Every rank of a ranked solve must reproduce the one-process solve's
  // observables bit for bit (the --ranks bit-identity contract).
  auto check_ranked = [&](const Launch& one, const Launch& ranked) {
    for (const Record& r : ranked.ranks) {
      if (!same_observables(one.ranks[0], r)) {
        rep.fail("wide-ranks ranked observables differ from the one-process "
                 "solve");
        return false;
      }
    }
    return true;
  };
  if (ctx.opt.trace) {
    Launch one = solve(1, false);
    Launch u1 = solve(kRanks, false);
    Launch t1 = solve(kRanks, true);
    Launch u2 = solve(kRanks, false);
    Launch t2 = solve(kRanks, true);
    bool ok = true;
    for (const Launch* L : {&one, &u1, &t1, &u2, &t2})
      ok = check_launch(rep, *L, "wide-ranks solve") && ok;
    for (const Launch* L : {&u1, &t1, &u2, &t2})
      ok = ok && check_ranked(one, *L);
    if (!ok) return;
    Pass p1 = pass_from_launch(t1), p2 = pass_from_launch(t2);
    report_layers(rep, p1, p2, 0.5 * (u1.run_s() + u2.run_s()), ctx.trace);
    return;
  }
  // Cycles of two ranked, one one-process and two ranked solves: the
  // ranked solve (the measured one) gets most of the run, and the
  // one-process solves bracketed by them give scale_eff from the same
  // stretches of time.
  std::vector<Launch> ranked_runs, one_runs;
  const double t_start = now_s();
  const std::size_t min_one = ctx.opt.quick ? 1 : 2;
  // Checked after every solve, so a run overshoots --seconds by at most one.
  auto done = [&] {
    return one_runs.size() >= min_one && now_s() - t_start >= ctx.opt.seconds;
  };
  bool ok = true;
  while (ok && !done()) {
    for (const int ranks : {kRanks, kRanks, 1, kRanks, kRanks}) {
      Launch L = solve(ranks, false);
      ok = check_launch(rep, L, ranks == 1 ? "wide-ranks one-process solve"
                                           : "wide-ranks ranked solve");
      if (!ok) break;
      (ranks == 1 ? one_runs : ranked_runs).push_back(std::move(L));
      if (done()) break;
    }
  }
  if (one_runs.empty()) return;
  std::vector<double> run_s, setup_s, iter_s, rss, one_s;
  for (const Launch& L : ranked_runs) {
    check_ranked(one_runs[0], L);
    run_s.push_back(L.run_s());
    setup_s.push_back(L.setup_s());
    iter_s.push_back(L.iter_s());
    rss.push_back(L.rss_mb());
  }
  for (const Launch& L : one_runs) {
    if (!same_observables(one_runs[0].ranks[0], L.ranks[0]))
      rep.fail("wide-ranks one-process solves differ from each other");
    one_s.push_back(L.run_s());
  }
  const long n = static_cast<long>(run_s.size());
  rep.add("setup_s", median(setup_s), "s", n);
  rep.add("run_s", median(run_s), "s", n);
  rep.add("iter_s", median(iter_s), "s", n);
  rep.add("rss_mb", median(rss), "MiB", n);
  rep.info("scale_eff", median(one_s) / (kRanks * median(run_s)), "ratio", n);
  rep.info("one_process_run_s", median(one_s), "s",
           static_cast<long>(one_s.size()));
}

// ---------------------------------------------------------------------------
// serve-iv: an in-process daemon fed by one closed-loop client.
// ---------------------------------------------------------------------------

struct Served {
  std::string deck;
  std::string payload;
  double latency = 0.0;
  double t_send = 0.0, t_reply = 0.0;
  int run = 0;
  bool hit = false;
};

/// Cold in-process solve of \p deck, normalized the way Server::solve
/// normalizes requests, with the wall-time-bearing sections stripped.
std::string cold_reference(const std::string& deck) {
  io::Scenario s = io::parse_scenario_text(deck, "request.ini");
  if (s.name.empty()) s.name = io::scenario_path_stem("request.ini");
  s.output = io::OutputSpec{};
  s.output.directory.clear();
  const io::RunOutcome ref =
      io::run_scenario(s, core::StageRegistry::global(), nullptr);
  return serve::strip_volatile_sections(
      io::render_result_json(s, ref.resolved, ref.results));
}

/// Compare every served reply with a cold solve of its deck. Computed after
/// the timed loop, three decks at a time.
void check_replies(Report& rep, const std::vector<Served>& replies) {
  std::vector<std::string> decks;
  for (const Served& r : replies) decks.push_back(r.deck);
  std::sort(decks.begin(), decks.end());
  decks.erase(std::unique(decks.begin(), decks.end()), decks.end());
  std::vector<std::string> refs(decks.size());
  std::vector<std::string> errors(decks.size());
  std::vector<std::thread> workers;
  constexpr std::size_t kWorkers = 3;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t i = w; i < decks.size(); i += kWorkers) {
        try {
          refs[i] = cold_reference(decks[i]);
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (const Served& r : replies) {
    const std::size_t i =
        std::lower_bound(decks.begin(), decks.end(), r.deck) - decks.begin();
    if (!errors[i].empty()) {
      rep.fail("cold reference solve failed: " + errors[i]);
    } else if (serve::strip_volatile_sections(r.payload) != refs[i]) {
      rep.fail("served reply differs from its cold in-process solve");
    }
  }
}

class ServeSession {
 public:
  ServeSession(Context& ctx, Report& rep, const core::StageRegistry& reg,
               const std::string& name)
      : rep_(rep), client_(socket_path(ctx, name)) {
    serve::ServerOptions o;
    o.socket_path = client_.socket_path();
    o.workers = 1;
    server_ = std::make_unique<serve::Server>(o, reg);
    server_->start();
  }
  ~ServeSession() { server_->stop(); }
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// One closed-loop request; false when it errored (counted as failed).
  bool submit(const std::string& deck, Served& out) {
    rep_.attempt();
    out.deck = deck;
    out.t_send = now_s();
    serve::Client::Response r;
    try {
      r = client_.submit(deck);
    } catch (const std::exception& e) {  // daemon unreachable or link died
      r.error = e.what();
    }
    out.t_reply = now_s();
    out.latency = out.t_reply - out.t_send;
    if (!r.ok) {
      rep_.fail("request failed: " + r.error);
      return false;
    }
    out.payload = r.payload;
    out.hit = json_true(r.payload, "cache_hit");
    return true;
  }
  serve::Server& server() { return *server_; }

 private:
  static std::string socket_path(Context& ctx, const std::string& name) {
    return ctx.work + "/" + name + ".sock";
  }
  Report& rep_;
  serve::Client client_;
  std::unique_ptr<serve::Server> server_;
};

/// A deck the I-V stream never produces (gate outside its ±100 mV range):
/// fills the pipeline pool before timing without touching the stream's
/// cache entries.
std::string warmup_deck() { return serve_deck(0, 150); }

struct ServePass {
  std::vector<Served> replies;
  double loop_s = 0.0;
  serve::ServerStats stats;
  std::map<std::string, std::int64_t> flops;
};

/// Fixed-length pass for the traced run: warm daemon, then the first
/// \p requests of the seeded stream.
ServePass serve_fixed_pass(Context& ctx, Report& rep, bool traced,
                           int requests, int pass_id) {
  ServePass p;
  ServeSession session(ctx, rep,
                       traced ? traced_registry() : core::StageRegistry::global(),
                       "pass" + std::to_string(pass_id));
  Served warm;
  if (session.submit(warmup_deck(), warm)) p.replies.push_back(std::move(warm));
  IvStream stream(ctx.opt.seed);
  collect_spans();
  counters().reset();
  const std::map<std::string, std::int64_t> before = FlopLedger::by_phase();
  set_tracing(traced);
  const double t0 = now_s();
  for (int i = 0; i < requests; ++i) {
    const std::string deck = stream.next();
    if (traced) {
      // The parse every request pays on the server, measured by the same
      // call in the client thread.
      ScopedSpan span("io.parse");
      io::parse_scenario_text(deck, "request.ini");
    }
    const int run = pass_id * 100000 + i + 1;
    set_global_run(run);
    Served s;
    s.run = run;
    if (session.submit(deck, s)) p.replies.push_back(std::move(s));
  }
  p.loop_s = now_s() - t0;
  set_tracing(false);
  p.stats = session.server().stats();
  for (const auto& [k, f] : FlopLedger::by_phase()) {
    const auto it = before.find(k);
    const std::int64_t d = f - (it == before.end() ? 0 : it->second);
    if (d != 0) p.flops[k] = d;
  }
  return p;
}

/// Per-layer pass values of a traced serve pass: spans, flops, counters
/// and the serve section of every reply.
Pass serve_layers(ServePass& sp) {
  Pass p;
  p.spans = collect_spans();
  p.wall_s = sp.loop_s;
  for (const auto& [k, f] : sp.flops)
    p.values[flop_key(k)] = static_cast<double>(f);
  for (const auto& [k, x] : counters().snapshot()) p.values["count:" + k] = x;
  // Per served miss: the SCBA loop as the decorated spans bound it (first
  // executor call .. last mixer call of the request), construction before
  // it and observables + rendering + reply after it.
  struct Bounds {
    std::int64_t first = 0, last = 0;
    int tid = -1;
  };
  std::map<int, Bounds> loops;
  for (const Span& s : p.spans) {
    if (s.name == "exec" && s.parent == 0) {
      Bounds& b = loops[s.run];
      if (b.tid < 0 || s.start_ns < b.first) {
        b.first = s.start_ns;
        b.tid = s.tid;
      }
    }
    if (s.name == "mix") {
      Bounds& b = loops[s.run];
      b.last = std::max(b.last, s.end_ns);
    }
  }
  double hits = 0, misses = 0, queue = 0, solve = 0, overhead = 0, iters = 0,
         bytes = 0;
  for (const Served& r : sp.replies) {
    if (r.run == 0) continue;  // the warm-up request
    bytes += static_cast<double>(
        serve::strip_volatile_sections(r.payload).size());
    queue += json_number(r.payload, "queue_seconds");
    if (r.hit) {
      ++hits;
      continue;
    }
    ++misses;
    const double q = json_number(r.payload, "queue_seconds");
    const double sv = json_number(r.payload, "solve_seconds");
    solve += sv;
    overhead += r.latency - sv - q;
    iters += json_number(r.payload, "iterations");
    const auto it = loops.find(r.run);
    if (it == loops.end() || it->second.tid < 0) continue;
    const Bounds& b = it->second;
    auto add = [&](const char* name, std::int64_t a, std::int64_t z) {
      Span s;
      s.name = name;
      s.start_ns = a;
      s.end_ns = std::max(a, z);
      s.run = r.run;
      s.tid = b.tid;
      p.spans.push_back(s);
    };
    add("core.construct", to_ns(r.t_send + q), b.first);
    add("core.loop", b.first, b.last);
    add("core.post", b.last, to_ns(r.t_reply));
  }
  const double requests = hits + misses;
  p.values["out_bytes"] = bytes;
  p.values["iterations"] = iters;
  p.values["threads"] = 2;
  p.values["serve.hit_ratio"] = requests > 0 ? hits / requests : 0.0;
  const double checkouts =
      static_cast<double>(sp.stats.pool.warm_hits + sp.stats.pool.cold_builds);
  p.values["serve.warm_ratio"] =
      checkouts > 0 ? static_cast<double>(sp.stats.pool.warm_hits) / checkouts
                    : 0.0;
  p.values["serve.queue_s"] = requests > 0 ? queue / requests : 0.0;
  p.values["serve.solve_s"] = misses > 0 ? solve / misses : 0.0;
  p.values["serve.overhead_s"] = misses > 0 ? overhead / misses : 0.0;
  return p;
}

void run_serve_iv(Context& ctx, Report& rep) {
  if (ctx.opt.trace) {
    const int requests = ctx.opt.quick ? 8 : 40;
    ServePass u1 = serve_fixed_pass(ctx, rep, false, requests, 1);
    ServePass t1 = serve_fixed_pass(ctx, rep, true, requests, 2);
    Pass p1 = serve_layers(t1);
    ServePass u2 = serve_fixed_pass(ctx, rep, false, requests, 3);
    ServePass t2 = serve_fixed_pass(ctx, rep, true, requests, 4);
    Pass p2 = serve_layers(t2);
    std::vector<Served> all;
    for (const ServePass* p : {&u1, &t1, &u2, &t2})
      all.insert(all.end(), p->replies.begin(), p->replies.end());
    check_replies(rep, all);
    report_layers(rep, p1, p2, 0.5 * (u1.loop_s + u2.loop_s), ctx.trace);
    return;
  }
  std::vector<Served> checked;
  // setup_s: a fresh daemon until its first reply to a cold request (the
  // seed-independent warm-up deck, so every run sets up the same work).
  std::vector<double> setup_s;
  for (int k = 0; k < (ctx.opt.quick ? 1 : 9); ++k) {
    const double t0 = now_s();
    ServeSession fresh(ctx, rep, core::StageRegistry::global(),
                       "setup" + std::to_string(k));
    Served s;
    if (fresh.submit(warmup_deck(), s)) {
      setup_s.push_back(now_s() - t0);
      checked.push_back(std::move(s));
    }
  }

  ServeSession session(ctx, rep, core::StageRegistry::global(), "main");
  Served warm;
  if (session.submit(warmup_deck(), warm)) checked.push_back(std::move(warm));
  IvStream timed(ctx.opt.seed);
  std::vector<double> miss_lat, hit_lat, iter_s;
  const std::size_t min_misses = ctx.opt.quick ? 8 : 100;
  const double t0 = now_s();
  double t_end = t0;
  while ((miss_lat.size() < min_misses || t_end - t0 < ctx.opt.seconds) &&
         miss_lat.size() + hit_lat.size() < 5000) {
    Served s;
    if (session.submit(timed.next(), s)) {
      if (s.hit) {
        hit_lat.push_back(s.latency);
      } else {
        miss_lat.push_back(s.latency);
        iter_s.push_back(json_number(s.payload, "total_seconds") /
                         json_number(s.payload, "iterations"));
      }
      checked.push_back(std::move(s));
    }
    t_end = now_s();
  }
  const double rss = peak_rss_mb();
  const double requests = static_cast<double>(miss_lat.size() + hit_lat.size());
  check_replies(rep, checked);

  const long nm = static_cast<long>(miss_lat.size());
  rep.add("setup_s", median(setup_s), "s", static_cast<long>(setup_s.size()));
  rep.add("run_s", median(miss_lat), "s", nm);
  rep.add("iter_s", median(iter_s), "s", nm);
  rep.add("rss_mb", rss, "MiB", 1);
  rep.info("serve_rps", requests / (t_end - t0), "req/s",
           static_cast<long>(requests));
  rep.info("miss_p50_s", median(miss_lat), "s", nm);
  rep.info("miss_p90_s", percentile(miss_lat, 0.9), "s", nm);
  rep.info("hit_p50_s", median(hit_lat), "s", static_cast<long>(hit_lat.size()));
}

// ---------------------------------------------------------------------------
// CLI.
// ---------------------------------------------------------------------------

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--quick") {
      o.quick = true;
    } else {
      throw std::runtime_error("unknown argument " + a);
    }
  }
  return o;
}

int run(int argc, char** argv) {
  Context ctx;
  ctx.opt = parse_args(argc, argv);
  const std::map<std::string, std::function<void(Context&, Report&)>>
      workloads = {{"quickstart", run_quickstart},
                   {"wide-ranks", run_wide_ranks},
                   {"serve-iv", run_serve_iv}};
  const auto wl = workloads.find(ctx.opt.workload);
  if (wl == workloads.end())
    throw std::runtime_error("unknown workload \"" + ctx.opt.workload + "\"");
  ctx.work = ".bench_run/" + std::to_string(::getpid());
  ctx.trace = ".bench_run/trace-" + ctx.opt.workload + ".json";
  fs::remove_all(ctx.work);
  fs::create_directories(ctx.work);
  std::printf("qtxbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              ctx.opt.workload.c_str(),
              static_cast<unsigned long long>(ctx.opt.seed), ctx.opt.seconds,
              ctx.opt.trace ? 1 : 0, ctx.opt.quick ? " quick" : "");
  // Measured once here, so forked solves inherit the cached value.
  std::printf("host peak %.3f GFLOP/s (FMA, one core)\n",
              core::measure_host_peak().fma_gflops);
  Report rep;
  wl->second(ctx, rep);
  fs::remove_all(ctx.work);
  std::printf("fail_frac %.6g (%ld failed of %ld attempted)\n",
              rep.attempted() > 0
                  ? static_cast<double>(rep.failed()) / rep.attempted()
                  : 0.0,
              rep.failed(), rep.attempted());
  rep.print_json();
  return 0;
}

}  // namespace
}  // namespace qtxbench

int main(int argc, char** argv) {
  try {
    return qtxbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qtx_bench: %s\n", e.what());
    return 1;
  }
}
