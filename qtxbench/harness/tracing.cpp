#include "tracing.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "accel/mixer.hpp"
#include "common/flops.hpp"
#include "core/stages.hpp"
#include "la/backend.hpp"

namespace qtxbench {
namespace {

using qtx::core::StageRegistry;
using qtx::core::SimulationOptions;

std::atomic<bool> g_tracing{false};
std::atomic<int> g_run{0};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<int> g_next_tid{0};

struct ThreadBuffer;

struct ThreadState {
  ThreadBuffer* buffer = nullptr;
  std::vector<std::uint64_t> stack;
  int run = -1;
};
thread_local ThreadState t_state;

struct ThreadBuffer {
  std::mutex mutex;  // collect_spans() may run while a pool thread is idle
  std::vector<Span> spans;
  int tid = 0;
};

std::mutex g_buffers_mutex;
std::deque<std::unique_ptr<ThreadBuffer>> g_buffers;

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

int current_run() {
  return t_state.run >= 0 ? t_state.run : g_run.load(std::memory_order_relaxed);
}

ThreadBuffer& buffer() {
  if (t_state.buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->tid = g_next_tid.fetch_add(1);
    t_state.buffer = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::move(owned));
  }
  return *t_state.buffer;
}

void push(Span s) {
  ThreadBuffer& b = buffer();
  s.tid = b.tid;
  std::lock_guard<std::mutex> lock(b.mutex);
  b.spans.push_back(std::move(s));
}

// ---------------------------------------------------------------------------
// Stage decorators. Each forwards every call to the built-in instance and
// brackets the work in a span named after the layer it belongs to.
// ---------------------------------------------------------------------------

class TracedObc final : public qtx::core::ObcSolver {
 public:
  explicit TracedObc(std::unique_ptr<qtx::core::ObcSolver> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return inner_->name(); }
  qtx::la::Matrix solve_surface(const qtx::obc::ObcKey& key,
                                const qtx::la::Matrix& m,
                                const qtx::la::Matrix& n,
                                const qtx::la::Matrix& np) override {
    const qtx::obc::MemoizerStats before = inner_->stats();
    ScopedSpan span("obc");
    qtx::la::Matrix x = inner_->solve_surface(key, m, n, np);
    count(before);
    return x;
  }
  qtx::la::Matrix solve_stein(const qtx::obc::ObcKey& key,
                              const qtx::la::Matrix& q,
                              const qtx::la::Matrix& a,
                              double sigma) override {
    const qtx::obc::MemoizerStats before = inner_->stats();
    ScopedSpan span("obc");
    qtx::la::Matrix x = inner_->solve_stein(key, q, a, sigma);
    count(before);
    return x;
  }
  const qtx::obc::MemoizerStats& stats() const override {
    return inner_->stats();
  }
  void reset() override { inner_->reset(); }

 private:
  // Dispatch counters as deltas around each call, so a reset() of the
  // wrapped solver between runs never loses counts.
  void count(const qtx::obc::MemoizerStats& before) const {
    const qtx::obc::MemoizerStats& after = inner_->stats();
    Counters& c = counters();
    c.obc_direct += after.direct_calls - before.direct_calls;
    c.obc_memoized += after.memoized_calls - before.memoized_calls;
    c.obc_fpi += after.fpi_iterations - before.fpi_iterations;
  }
  std::unique_ptr<qtx::core::ObcSolver> inner_;
};

class TracedGreens final : public qtx::core::GreensSolver {
 public:
  explicit TracedGreens(std::unique_ptr<qtx::core::GreensSolver> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return inner_->name(); }
  qtx::rgf::SelectedSolution solve(const qtx::bt::BlockTridiag& m,
                                   const qtx::bt::BlockTridiag& bl,
                                   const qtx::bt::BlockTridiag& bg) override {
    ScopedSpan span("rgf");
    return inner_->solve(m, bl, bg);
  }

 private:
  std::unique_ptr<qtx::core::GreensSolver> inner_;
};

class TracedChannel final : public qtx::core::SelfEnergyChannel {
 public:
  explicit TracedChannel(std::unique_ptr<qtx::core::SelfEnergyChannel> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return inner_->name(); }
  bool needs_screened_interaction() const override {
    return inner_->needs_screened_interaction();
  }
  void accumulate(const qtx::core::SelfEnergyInput& in,
                  qtx::core::SelfEnergyAccumulator& out) override {
    ScopedSpan span("sigma");
    inner_->accumulate(in, out);
  }

 private:
  std::unique_ptr<qtx::core::SelfEnergyChannel> inner_;
};

class TracedMixer final : public qtx::accel::Mixer {
 public:
  explicit TracedMixer(std::unique_ptr<qtx::accel::Mixer> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }
  int history_size() const override { return inner_->history_size(); }
  qtx::accel::MixOutcome mix(const qtx::accel::SigmaState& state,
                             const qtx::accel::SigmaProposal& proposal,
                             const qtx::accel::EnergyLoop& loop) override {
    ScopedSpan span("mix");
    return inner_->mix(state, proposal, loop);
  }

 private:
  std::unique_ptr<qtx::accel::Mixer> inner_;
};

class TracedExecutor final : public qtx::core::EnergyLoopExecutor {
 public:
  explicit TracedExecutor(
      std::unique_ptr<qtx::core::EnergyLoopExecutor> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return inner_->name(); }
  int concurrency() const override { return inner_->concurrency(); }
  void for_each_batch(
      const std::vector<qtx::core::EnergyBatch>& batches,
      const std::function<void(const qtx::core::EnergyBatch&)>& fn) override {
    ScopedSpan span("exec");
    const std::uint64_t parent = span.id();
    const int run = current_run();
    inner_->for_each_batch(
        batches, [&fn, parent, run](const qtx::core::EnergyBatch& b) {
          // Pool threads inherit the caller's run id for this batch only.
          const int saved = t_state.run;
          t_state.run = run;
          {
            ScopedSpan batch("exec.batch", parent);
            fn(b);
          }
          t_state.run = saved;
        });
  }

 private:
  std::unique_ptr<qtx::core::EnergyLoopExecutor> inner_;
};

constexpr std::int64_t kCplxBytes = 16;

class TracedLa final : public qtx::la::Backend {
 public:
  explicit TracedLa(std::unique_ptr<qtx::la::Backend> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return inner_->name(); }
  void gemm_accumulate(qtx::cplx alpha, const qtx::la::Matrix& a,
                       qtx::la::Op opa, const qtx::la::Matrix& b,
                       qtx::la::Op opb, qtx::la::Matrix& c) const override {
    const std::int64_t m = c.rows(), n = c.cols();
    const std::int64_t k =
        m > 0 ? static_cast<std::int64_t>(a.rows()) * a.cols() / m : 0;
    Counters& cn = counters();
    cn.gemm_flops += qtx::flop_count::gemm(m, n, k);
    cn.gemm_bytes += kCplxBytes * (m * k + k * n + 2 * m * n);
    ScopedSpan span("la.gemm");
    inner_->gemm_accumulate(alpha, a, opa, b, opb, c);
  }
  qtx::la::LuFactors lu_factor(const qtx::la::Matrix& a) const override {
    const std::int64_t n = a.rows();
    Counters& cn = counters();
    cn.lu_flops += qtx::flop_count::lu(n);
    cn.lu_bytes += kCplxBytes * 2 * n * n;
    ScopedSpan span("la.lu");
    return inner_->lu_factor(a);
  }
  qtx::la::Matrix lu_solve(const qtx::la::LuFactors& f,
                           const qtx::la::Matrix& b) const override {
    count_solve(f, b);
    ScopedSpan span("la.lu");
    return inner_->lu_solve(f, b);
  }
  qtx::la::Matrix lu_solve_right(const qtx::la::LuFactors& f,
                                 const qtx::la::Matrix& b) const override {
    count_solve(f, b);
    ScopedSpan span("la.lu");
    return inner_->lu_solve_right(f, b);
  }

 private:
  static void count_solve(const qtx::la::LuFactors& f,
                          const qtx::la::Matrix& b) {
    const std::int64_t n = f.lu.rows();
    const std::int64_t nrhs = n > 0 ? static_cast<std::int64_t>(b.rows()) *
                                          b.cols() / n
                                    : 0;
    Counters& cn = counters();
    cn.lu_flops += qtx::flop_count::lu_solve(n, nrhs);
    cn.lu_bytes += kCplxBytes * (n * n + 2 * n * nrhs);
  }
  std::unique_ptr<qtx::la::Backend> inner_;
};

StageRegistry build_traced_registry() {
  // The built-ins stay reachable through their own registry, which the
  // wrappers' factories call into; it must outlive every Simulation.
  static const StageRegistry builtins = StageRegistry::with_builtins();
  StageRegistry reg = StageRegistry::with_builtins();
  for (const std::string& key : builtins.obc_keys()) {
    reg.register_obc(key, [key](const SimulationOptions& o) {
      return std::make_unique<TracedObc>(builtins.make_obc(key, o));
    });
  }
  for (const std::string& key : builtins.greens_keys()) {
    reg.register_greens(key, [key](const SimulationOptions& o) {
      return std::make_unique<TracedGreens>(builtins.make_greens(key, o));
    });
  }
  for (const std::string& key : builtins.channel_keys()) {
    reg.register_channel(key, [key](const SimulationOptions& o,
                                    const qtx::core::SymLayout& l) {
      return std::make_unique<TracedChannel>(builtins.make_channel(key, o, l));
    });
  }
  for (const std::string& key : builtins.mixer_keys()) {
    reg.register_mixer(key, [key](const SimulationOptions& o) {
      return std::make_unique<TracedMixer>(builtins.make_mixer(key, o));
    });
  }
  for (const std::string& key : builtins.executor_keys()) {
    reg.register_executor(key, [key](const SimulationOptions& o) {
      return std::make_unique<TracedExecutor>(builtins.make_executor(key, o));
    });
  }
  for (const std::string& key : builtins.la_keys()) {
    reg.register_la(key, [key](const SimulationOptions& o) {
      return std::make_unique<TracedLa>(builtins.make_la(key, o));
    });
  }
  return reg;
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  out += '"';
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_tracing(bool on) { g_tracing.store(on); }

void set_global_run(int run) { g_run.store(run); }

void record_span(const std::string& name, std::int64_t start_ns,
                 std::int64_t end_ns) {
  if (!tracing()) return;
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.id = g_next_id.fetch_add(1);
  s.run = current_run();
  push(std::move(s));
}

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  if (!tracing()) return;
  parent_ = t_state.stack.empty() ? 0 : t_state.stack.back();
  id_ = g_next_id.fetch_add(1);
  t_state.stack.push_back(id_);
  start_ = now_ns();
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t parent)
    : ScopedSpan(name) {
  if (id_ != 0) parent_ = parent;
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  t_state.stack.pop_back();
  Span s;
  s.name = name_;
  s.start_ns = start_;
  s.end_ns = end;
  s.id = id_;
  s.parent = parent_;
  s.run = current_run();
  push(std::move(s));
}

std::vector<Span> collect_spans() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& b : g_buffers) {
    std::lock_guard<std::mutex> block(b->mutex);
    out.insert(out.end(), std::make_move_iterator(b->spans.begin()),
               std::make_move_iterator(b->spans.end()));
    b->spans.clear();
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return out;
}

void Counters::reset() {
  for (auto* c : {&gemm_flops, &gemm_bytes, &lu_flops, &lu_bytes, &comm_bytes,
                  &comm_msgs, &obc_direct, &obc_memoized, &obc_fpi}) {
    c->store(0);
  }
}

std::map<std::string, double> Counters::snapshot() const {
  return {{"gemm_flops", static_cast<double>(gemm_flops.load())},
          {"gemm_bytes", static_cast<double>(gemm_bytes.load())},
          {"lu_flops", static_cast<double>(lu_flops.load())},
          {"lu_bytes", static_cast<double>(lu_bytes.load())},
          {"comm_bytes", static_cast<double>(comm_bytes.load())},
          {"comm_msgs", static_cast<double>(comm_msgs.load())},
          {"obc_direct", static_cast<double>(obc_direct.load())},
          {"obc_memoized", static_cast<double>(obc_memoized.load())},
          {"obc_fpi", static_cast<double>(obc_fpi.load())}};
}

Counters& counters() {
  static Counters c;
  return c;
}

const StageRegistry& traced_registry() {
  static const StageRegistry reg = build_traced_registry();
  return reg;
}

void TracedComm::barrier() {
  ScopedSpan span("comm.wait");
  inner_.barrier();
}

void TracedComm::send(int dst, std::vector<qtx::cplx> data) {
  counters().comm_bytes += static_cast<std::int64_t>(data.size()) * kCplxBytes;
  counters().comm_msgs += 1;
  ScopedSpan span("comm.send");
  inner_.send(dst, std::move(data));
}

std::vector<qtx::cplx> TracedComm::recv(int src) {
  ScopedSpan span("comm.wait");
  return inner_.recv(src);
}

void write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) base = std::min(base, s.start_ns);
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  std::vector<std::pair<int, int>> threads;
  for (const Span& s : spans) threads.emplace_back(s.pid, s.tid);
  std::sort(threads.begin(), threads.end());
  threads.erase(std::unique(threads.begin(), threads.end()), threads.end());
  char buf[160];
  int last_pid = -1;
  for (const auto& [pid, tid] : threads) {
    if (pid != last_pid) {
      // pid 0 is the harness itself; pid r + 1 is forked solver rank r.
      const std::string label =
          pid == 0 ? "qtxbench harness" : "qtx rank " + std::to_string(pid - 1);
      std::snprintf(buf, sizeof buf,
                    "%s  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
                    "%d, \"tid\": 0, \"args\": {\"name\": \"%s\"}}",
                    first ? "" : ",\n", pid, label.c_str());
      out += buf;
      first = false;
      last_pid = pid;
    }
    std::snprintf(buf, sizeof buf,
                  ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %d, "
                  "\"tid\": %d, \"args\": {\"name\": \"thread %d\"}}",
                  pid, tid, tid);
    out += buf;
  }
  for (const Span& s : spans) {
    out += first ? "  {\"name\": " : ",\n  {\"name\": ";
    first = false;
    append_json_string(out, s.name);
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out += ", \"cat\": ";
    append_json_string(out, layer);
    std::snprintf(buf, sizeof buf,
                  ", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, "
                  "\"tid\": %d, \"args\": {\"id\": %llu, \"parent\": %llu, "
                  "\"run\": %d}}",
                  1e-3 * static_cast<double>(s.start_ns - base),
                  1e-3 * static_cast<double>(s.end_ns - s.start_ns), s.pid,
                  s.tid, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.run);
    out += buf;
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  if (std::fclose(f) != 0 || !ok) {
    throw std::runtime_error("cannot write " + path);
  }
}

}  // namespace qtxbench
