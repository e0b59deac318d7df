#pragma once

// Span recording and the timing decorators of the benchmark's traced run.
//
// Spans live in per-thread buffers (one heap block per thread, owned by a
// process-wide list so a buffer outlives the pool thread that filled it)
// and are collected once, when a traced pass ends. Nothing here touches the
// qtx sources: the decorators wrap the built-in stage factories of a
// `StageRegistry` and the `par::Comm` handed to `io::run_scenario`, so the
// program under test runs its normal code between two clock reads.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/stage_registry.hpp"
#include "par/comm.hpp"

namespace qtxbench {

/// One closed span. Times are steady_clock nanoseconds, which share one
/// timebase across fork(), so child-process spans merge onto the parent's
/// timeline.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      ///< unique within its process
  std::uint64_t parent = 0;  ///< 0 = no recorded parent
  int run = 0;               ///< run or request id
  int tid = 0;               ///< thread index within its process
  int pid = 0;               ///< process index (rank); set by the merger

  double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
};

std::int64_t now_ns();
inline double now_s() { return 1e-9 * static_cast<double>(now_ns()); }

/// Process-wide switch; spans opened while it is off record nothing.
void set_tracing(bool on);

/// Run/request id stamped on spans. Energy-pipeline workers take the id of
/// the call that scheduled their batch; every other thread, including ones
/// the harness does not own such as the serve worker, takes this
/// process-wide id.
void set_global_run(int run);

/// Record a parentless span with explicit bounds on the calling thread
/// (intervals the harness learns after the fact, such as SCBA iterations
/// reported through the progress hook).
void record_span(const std::string& name, std::int64_t start_ns,
                 std::int64_t end_ns);

/// RAII span: parent is the innermost open span of this thread unless an
/// explicit parent id is given (cross-thread nesting, e.g. energy batches
/// under the executor call that scheduled them).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ScopedSpan(const char* name, std::uint64_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ = 0;
};

/// Move every recorded span out of the per-thread buffers.
std::vector<Span> collect_spans();

/// Additive counters recorded by the decorators (calls are spans; these
/// are the quantities a span cannot carry: la FLOPs/bytes computed from
/// shapes, comm bytes and messages, OBC dispatch counters).
struct Counters {
  std::atomic<std::int64_t> gemm_flops{0}, gemm_bytes{0};
  std::atomic<std::int64_t> lu_flops{0}, lu_bytes{0};
  std::atomic<std::int64_t> comm_bytes{0}, comm_msgs{0};
  std::atomic<std::int64_t> obc_direct{0}, obc_memoized{0}, obc_fpi{0};

  void reset();
  std::map<std::string, double> snapshot() const;
};
Counters& counters();

/// `StageRegistry::with_builtins()` with every obc, greens, channel, mixer,
/// executor and la key re-registered as a timing wrapper around the
/// built-in factory of the same key.
const qtx::core::StageRegistry& traced_registry();

/// Comm decorator: forwards to \p inner, timing send (comm.send) and the
/// blocking receive/barrier waits (comm.wait), counting bytes and messages.
class TracedComm final : public qtx::par::Comm {
 public:
  explicit TracedComm(qtx::par::Comm& inner) : inner_(inner) {}
  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }
  void barrier() override;
  void send(int dst, std::vector<qtx::cplx> data) override;
  std::vector<qtx::cplx> recv(int src) override;
  std::int64_t bytes_sent() const override { return inner_.bytes_sent(); }

 private:
  qtx::par::Comm& inner_;
};

/// Write \p spans as Chrome trace-event JSON, the format `qtx run --trace`
/// emits (complete "X" events, pid = process index, tid = thread index,
/// ts/dur in microseconds), so Perfetto opens both side by side.
void write_chrome_trace(const std::vector<Span>& spans, const std::string& path);

}  // namespace qtxbench
