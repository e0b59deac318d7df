#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/timer.hpp"
#include "io/result_writer.hpp"
#include "io/scenario_parser.hpp"
#include "io/scenario_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qtx::serve {
namespace {

/// Monotonic seconds for queue-wait and solve-time provenance.
double now_seconds() { return monotonic_seconds(); }

void close_quiet(int fd) {
  if (fd >= 0) ::close(fd);
}

/// Best-effort error reply: the peer may already be gone, which must not
/// take the server down with it.
void try_reply_error(int fd, const std::string& message) {
  try {
    write_frame(fd, kFrameError, message);
  } catch (const FrameError&) {
  }
}

}  // namespace

Server::Server(ServerOptions options, const core::StageRegistry& registry)
    : options_(std::move(options)),
      registry_(&registry),
      cache_(options_.cache_bytes) {}

Server::~Server() {
  if (started_ && !joined_) {
    request_stop();
    wait();
  }
  close_quiet(stop_pipe_rd_);
  close_quiet(stop_pipe_wr_);
  if (!options_.socket_path.empty())
    ::unlink(options_.socket_path.c_str());
}

void Server::start() {
  if (started_) throw std::runtime_error("serve::Server already started");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error(
        "socket path \"" + options_.socket_path +
        "\" is empty or too long for an AF_UNIX address (max " +
        std::to_string(sizeof addr.sun_path - 1) + " bytes)");
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error(std::string("cannot create stop pipe: ") +
                             std::strerror(errno));
  }
  stop_pipe_rd_ = pipe_fds[0];
  stop_pipe_wr_ = pipe_fds[1];

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("cannot create socket: ") +
                             std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());  // stale path from a dead server
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string err = std::strerror(errno);
    close_quiet(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("cannot bind/listen on \"" +
                             options_.socket_path + "\": " + err);
  }

  started_ = true;
  acceptor_ = std::thread([this] { acceptor_loop(); });
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void Server::request_stop() {
  // Async-signal-safe: one write(2), no locks, no allocation. The acceptor
  // converts the byte into the locked drain transition.
  if (stop_pipe_wr_ >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t r = ::write(stop_pipe_wr_, &byte, 1);
  }
}

void Server::wait() {
  if (!started_ || joined_) return;
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  close_quiet(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  joined_ = true;
}

void Server::stop() {
  request_stop();
  wait();
}

bool Server::running() const { return started_ && !joined_; }

ServerStats Server::stats() const {
  ServerStats s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.requests_ok = requests_ok_;
    s.requests_error = requests_error_;
  }
  s.cache = cache_.stats();
  return s;
}

std::string Server::render_stats() const {
  // Refresh the daemon gauges into the process registry, then export the
  // full unified snapshot (which also absorbs TimerRegistry/FlopLedger).
  auto& m = obs::MetricsRegistry::global();
  const ServerStats s = stats();
  m.set_gauge("qtx.serve.requests_ok", static_cast<double>(s.requests_ok));
  m.set_gauge("qtx.serve.requests_error",
              static_cast<double>(s.requests_error));
  m.set_gauge("qtx.serve.cache.hits", static_cast<double>(s.cache.hits));
  m.set_gauge("qtx.serve.cache.misses",
              static_cast<double>(s.cache.misses));
  m.set_gauge("qtx.serve.cache.evictions",
              static_cast<double>(s.cache.evictions));
  m.set_gauge("qtx.serve.cache.entries",
              static_cast<double>(s.cache.entries));
  m.set_gauge("qtx.serve.cache.bytes", static_cast<double>(s.cache.bytes));
  const long long cache_lookups = s.cache.hits + s.cache.misses;
  m.set_gauge("qtx.serve.cache.hit_rate",
              cache_lookups > 0
                  ? static_cast<double>(s.cache.hits) /
                        static_cast<double>(cache_lookups)
                  : 0.0);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    m.set_gauge("qtx.serve.queue_depth",
                static_cast<double>(queue_.size()));
    m.set_gauge("qtx.serve.workers", static_cast<double>(options_.workers));
  }
  return obs::to_json(obs::snapshot_process(m));
}

void Server::begin_drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
}

void Server::acceptor_loop() {
  for (;;) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {stop_pipe_rd_, POLLIN, 0};
    const int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself failed — drain rather than spin
    }
    if (fds[1].revents != 0) break;  // request_stop() fired
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket is gone
    }
    handle_connection(fd);
    // A shutdown frame flips stopping_; stop accepting from then on.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
  }
  begin_drain();
}

void Server::handle_connection(int fd) {
  // Bound the header/payload read so a stalled client cannot wedge the
  // acceptor (workers never read from sockets, only reply).
  timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);

  Frame frame;
  try {
    if (!read_frame(fd, frame, options_.max_request_bytes)) {
      close_quiet(fd);  // connect-probe (e.g. Client::wait_ready)
      return;
    }
  } catch (const FrameError& e) {
    try_reply_error(fd, std::string("request rejected: ") + e.what());
    close_quiet(fd);
    std::lock_guard<std::mutex> lock(mutex_);
    ++requests_error_;
    return;
  }

  if (frame.type == kFrameShutdown) {
    try {
      write_frame(fd, kFrameShutdownAck, "");
    } catch (const FrameError&) {
    }
    close_quiet(fd);
    begin_drain();
    return;
  }
  if (frame.type == kFrameStats) {
    // Answered synchronously from the acceptor: a scrape never enters the
    // worker queue, so it cannot disturb (or be blocked by) in-flight
    // solves.
    try {
      write_frame(fd, kFrameResponse, render_stats());
    } catch (const FrameError&) {
    }
    close_quiet(fd);
    return;
  }
  if (frame.type != kFrameRequest) {
    try_reply_error(fd, "request rejected: unknown frame type " +
                            std::to_string(frame.type));
    close_quiet(fd);
    std::lock_guard<std::mutex> lock(mutex_);
    ++requests_error_;
    return;
  }

  PendingRequest pending;
  pending.fd = fd;
  pending.payload = std::move(frame.payload);
  pending.arrival_seconds = now_seconds();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (static_cast<int>(queue_.size()) >= options_.queue_capacity) {
      ++requests_error_;
      try_reply_error(
          fd, "server queue is full (" +
                  std::to_string(options_.queue_capacity) +
                  " pending requests) — retry later or raise --queue");
      close_quiet(fd);
      return;
    }
    queue_.push_back(std::move(pending));
  }
  cv_.notify_one();
}

void Server::worker_loop() {
  for (;;) {
    PendingRequest req;
    bool draining = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and nothing left to answer
      req = std::move(queue_.front());
      queue_.pop_front();
      draining = stopping_;
    }
    const double queue_seconds = now_seconds() - req.arrival_seconds;
    if (draining) {
      // Graceful drain: in-flight solves complete, but requests that were
      // still queued when the stop arrived get a clear error.
      try_reply_error(req.fd,
                      "server is draining (shutdown requested) — this "
                      "request was still queued; resubmit elsewhere");
      close_quiet(req.fd);
      std::lock_guard<std::mutex> lock(mutex_);
      ++requests_error_;
      continue;
    }
    if (queue_seconds > options_.request_timeout_s) {
      std::ostringstream os;
      os << "request timed out in the queue (waited "
         << static_cast<long long>(queue_seconds)
         << " s, --request-timeout is "
         << static_cast<long long>(options_.request_timeout_s) << " s)";
      try_reply_error(req.fd, os.str());
      close_quiet(req.fd);
      std::lock_guard<std::mutex> lock(mutex_);
      ++requests_error_;
      continue;
    }
    handle_request(req.fd, req.payload, queue_seconds);
  }
}

void Server::handle_request(int fd, const std::string& payload,
                            double queue_seconds) {
  const obs::Span span("serve.request", obs::SpanKind::kServe);
  ServeInfo info;
  info.queue_seconds = queue_seconds;
  auto& m = obs::MetricsRegistry::global();
  m.observe("qtx.serve.queue_seconds", queue_seconds);
  bool counted_ok = false;
  try {
    const std::string body = solve(payload, info);
    const std::string reply = append_serve_section(body, info);
    // Publish the request's metrics BEFORE the response frame goes out:
    // a client that scrapes stats right after its submit returns must
    // observe its own request in the counters.
    m.observe("qtx.serve.solve_seconds", info.solve_seconds);
    m.add_counter(info.cache_hit ? "qtx.serve.requests_cached"
                                 : "qtx.serve.requests_solved");
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++requests_ok_;
    }
    counted_ok = true;
    write_frame(fd, kFrameResponse, reply);
  } catch (const std::exception& e) {
    try_reply_error(fd, e.what());
    // A reply failure after a successful solve (client hung up) stays
    // counted as ok — the solve itself did not fail.
    if (!counted_ok) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++requests_error_;
    }
  }
  close_quiet(fd);
}

std::string Server::solve(const std::string& payload, ServeInfo& info) {
  const Request request = decode_request(payload);
  io::Scenario s = io::parse_scenario_text(request.deck_text,
                                           request.deck_name);
  if (s.name.empty()) s.name = io::scenario_path_stem(request.deck_name);
  for (const auto& [key, value] : request.overrides)
    io::apply_scenario_override(s, key, value);
  if (s.has_sweep()) {
    throw io::ScenarioError(
        request.deck_name +
        ": [sweep] decks cannot be served — submit one request per sweep "
        "point, or run the deck with \"qtx sweep\"");
  }
  // The daemon never writes files; blanking the output spec also folds
  // output-only deck differences into one cache entry.
  s.output = io::OutputSpec{};
  s.output.directory.clear();

  const std::uint64_t key = io::canonical_deck_hash(s);
  std::string body;
  if (cache_.lookup(key, body)) {
    info.cache_hit = true;
    return body;
  }

  const double t0 = now_seconds();
  const io::RunOutcome out = io::run_scenario(s, *registry_);
  info.solve_seconds = now_seconds() - t0;
  body = io::render_result_json(s, out.resolved, out.results);
  cache_.insert(key, body);
  return body;
}

}  // namespace qtx::serve
