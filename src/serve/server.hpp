#pragma once

/// \file server.hpp
/// The `qtx serve` daemon: a long-lived AF_UNIX service that accepts
/// scenario decks (serve/protocol.hpp frames), solves them on a small
/// worker pool, and answers with results.json payloads bit-identical to a
/// cold `qtx run` of the same deck. A content-addressed `ResultCache`
/// (canonical deck hash → rendered payload) answers an identical request
/// without recomputing; every other request is a cold `io::run_scenario`
/// whose `Simulation` builds and owns its own energy pipeline.
///
/// Requests flow acceptor → bounded queue → workers. When the queue is
/// full the acceptor answers an immediate error (backpressure instead of
/// unbounded memory); a request that waited past the per-request timeout
/// is answered with a timeout error when a worker finally reaches it (the
/// solve itself is never preempted — the timeout bounds *queue* time).
/// `request_stop()` — async-signal-safe, so a SIGTERM handler may call it
/// directly — and the client shutdown frame both begin a graceful drain:
/// in-flight solves complete and answer normally, still-queued requests
/// get a clear "draining" error, then every thread joins.

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

#include "core/stage_registry.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"

namespace qtx::serve {

/// Configuration of a `Server` (all knobs the `qtx serve` CLI exposes).
struct ServerOptions {
  std::string socket_path;       ///< AF_UNIX path to bind (required)
  int workers = 1;               ///< solver worker threads
  int queue_capacity = 16;       ///< pending requests before backpressure
  std::size_t cache_bytes = 64ull << 20;  ///< ResultCache budget (0 = off)
  std::size_t max_request_bytes = 1ull << 20;  ///< request frame limit
  double request_timeout_s = 300.0;  ///< max queue wait before a timeout error
};

/// Counters of the removed warm-pipeline pool. The server never writes
/// them, so both stay 0. Kept only because the qtxbench harness still
/// reads `ServerStats::pool` for its `serve.warm_ratio` metric; delete
/// both together.
struct PoolStats {
  long long warm_hits = 0;    ///< always 0
  long long cold_builds = 0;  ///< always 0
};

/// Aggregate counters of a running (or drained) server.
struct ServerStats {
  long long requests_ok = 0;     ///< requests answered with a response frame
  long long requests_error = 0;  ///< requests answered with an error frame
  ResultCache::Stats cache;      ///< hit/miss/eviction counters
  PoolStats pool;                ///< always zero (see PoolStats)
};

class Server {
 public:
  /// Configure against \p registry (the scenario runs resolve their
  /// backends there; tests inject instrumented registries). The registry
  /// must outlive the server. Nothing binds until `start()`.
  explicit Server(ServerOptions options,
                  const core::StageRegistry& registry =
                      core::StageRegistry::global());

  /// Drains and joins if still running, then removes the socket file.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket, start the acceptor and worker threads, and return
  /// (the daemon runs on its own threads). Throws std::runtime_error when
  /// the path is too long for sockaddr_un or the bind/listen fails.
  void start();

  /// Begin a graceful drain. Async-signal-safe (one write(2) to an
  /// internal pipe, no locks), so a SIGTERM/SIGINT handler may call it on
  /// a started server. Safe to call more than once.
  void request_stop();

  /// Block until the drain completes and every thread has joined. Returns
  /// immediately if the server never started or already drained.
  void wait();

  /// `request_stop()` + `wait()`.
  void stop();

  /// True between a successful `start()` and the end of `wait()`.
  bool running() const;

  ServerStats stats() const;              ///< consistent counter snapshot

  /// The metrics-snapshot JSON answered to a `stats` frame: refreshes the
  /// daemon's `qtx.serve.*` gauges into obs::MetricsRegistry::global(),
  /// then renders the unified process snapshot (obs::snapshot_process).
  std::string render_stats() const;

  const ServerOptions& options() const { return options_; }

 private:
  struct PendingRequest {
    int fd = -1;              ///< connection owning the reply
    std::string payload;      ///< raw request-frame payload
    double arrival_seconds;   ///< monotonic enqueue time
  };

  void acceptor_loop();
  void worker_loop();
  void begin_drain();
  void handle_connection(int fd);
  void handle_request(int fd, const std::string& payload,
                      double queue_seconds);
  std::string solve(const std::string& payload, ServeInfo& info);

  ServerOptions options_;
  const core::StageRegistry* registry_;
  ResultCache cache_;

  int listen_fd_ = -1;
  int stop_pipe_rd_ = -1;
  int stop_pipe_wr_ = -1;
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<PendingRequest> queue_;
  bool stopping_ = false;
  bool started_ = false;
  bool joined_ = false;
  long long requests_ok_ = 0;
  long long requests_error_ = 0;
};

}  // namespace qtx::serve
