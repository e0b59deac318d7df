// Serve-layer suite (ctest label "serve"):
//
//  - ResultCache: hit/miss counters, LRU eviction under the byte budget,
//    zero-budget and oversized-payload edge cases
//  - frame codec over a socketpair: round trips, clean EOF, truncation,
//    the oversized-header guard
//  - request codec: encode/decode round trip and malformed-preamble
//    rejection
//  - the "serve" provenance section: append + strip round trips
//  - Server end to end (in-process daemon + the real Client): uncached
//    repeats and cache-hit responses bit-identical to a cold run (compared
//    after strip_volatile_sections, the pinned volatile-free projection),
//    override handling, located deck errors, sweep rejection, malformed
//    and oversized frames, queue backpressure, queue timeouts, and the
//    graceful drain (in-flight requests complete, queued ones get a clear
//    error) driven by a gate-controlled OBC backend
//  - concurrent clients with different eta / num_threads / energy_batch:
//    every reply bit-identical to its own cold reference
//  - ServedGolden (also registered as ctest test golden.served_quickstart):
//    the served quickstart transmission matches
//    tests/golden/quickstart_transmission.txt bit-for-bit
//  - CLI smoke: the real `qtx serve` / `qtx submit` binaries round-trip a
//    deck and drain on `--shutdown`

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "io/result_writer.hpp"
#include "io/scenario_runner.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "serve/server.hpp"

#ifndef QTX_GOLDEN_DIR
#error "QTX_GOLDEN_DIR must point at tests/golden (set by CMakeLists.txt)"
#endif
#ifndef QTX_SCENARIO_DIR
#error "QTX_SCENARIO_DIR must point at scenarios/ (set by CMakeLists.txt)"
#endif
#ifndef QTX_QTX_BIN
#error "QTX_QTX_BIN must point at the qtx binary (set by CMakeLists.txt)"
#endif

namespace qtx {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Small-but-real deck: 2 quickstart cells, 8 energies, 2 SCBA iterations —
/// a full GW solve in a couple hundred milliseconds.
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

/// mkdtemp wrapper: AF_UNIX socket paths must stay under the ~108-byte
/// sun_path limit, so every test socket lives in a short /tmp directory.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/qtx_serve_XXXXXX";
    const char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    if (p != nullptr) path = p;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Golden .txt reader (same format as test_io/test_golden: '#' comments,
/// one double per line at %.17g).
std::vector<double> read_golden_values(const std::string& name) {
  std::ifstream in(std::string(QTX_GOLDEN_DIR) + "/" + name + ".txt");
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  std::vector<double> values;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    values.push_back(std::strtod(line.c_str(), nullptr));
  }
  return values;
}

/// What a cold `qtx run` of \p deck_text renders — the exact reference the
/// serve daemon must reproduce. Mirrors Server::solve's normalization
/// (name fallback, overrides in order, blanked output spec).
std::string cold_reference(
    const std::string& deck_text,
    const std::vector<std::pair<std::string, std::string>>& overrides = {},
    const std::string& deck_name = "request.ini") {
  io::Scenario s = io::parse_scenario_text(deck_text, deck_name);
  if (s.name.empty()) s.name = io::scenario_path_stem(deck_name);
  for (const auto& [key, value] : overrides)
    io::apply_scenario_override(s, key, value);
  s.output = io::OutputSpec{};
  s.output.directory.clear();
  const io::RunOutcome out =
      io::run_scenario(s, core::StageRegistry::global(), nullptr);
  return io::render_result_json(s, out.resolved, out.results);
}

std::string stripped(const std::string& results_json) {
  return serve::strip_volatile_sections(results_json);
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  EXPECT_LT(path.size(), sizeof addr.sun_path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  return fd;
}

/// Parse the "transmission" array out of a results.json payload (the
/// one-value-per-line io::JsonWriter layout).
std::vector<double> extract_transmission(const std::string& json) {
  std::istringstream in(json);
  std::vector<double> values;
  std::string line;
  bool in_array = false;
  while (std::getline(in, line)) {
    const std::string t = strings::trim(line);
    if (!in_array) {
      if (t.rfind("\"transmission\": [", 0) == 0) in_array = true;
      continue;
    }
    if (!t.empty() && t[0] == ']') break;
    values.push_back(std::strtod(t.c_str(), nullptr));
  }
  return values;
}

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

TEST(ResultCacheUnit, MissThenHitCountsBoth) {
  serve::ResultCache cache(1024);
  std::string payload;
  EXPECT_FALSE(cache.lookup(1, payload));
  cache.insert(1, "body");
  ASSERT_TRUE(cache.lookup(1, payload));
  EXPECT_EQ(payload, "body");
  const serve::ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.entries, 1);
  EXPECT_EQ(s.bytes, 4);
}

TEST(ResultCacheUnit, EvictsLeastRecentlyUsedUnderTheByteBudget) {
  serve::ResultCache cache(8);  // room for two 4-byte payloads
  cache.insert(1, "aaaa");
  cache.insert(2, "bbbb");
  std::string payload;
  ASSERT_TRUE(cache.lookup(1, payload));  // 1 becomes most-recently-used
  cache.insert(3, "cccc");                // must displace 2, not 1
  EXPECT_FALSE(cache.lookup(2, payload));
  EXPECT_TRUE(cache.lookup(1, payload));
  EXPECT_TRUE(cache.lookup(3, payload));
  const serve::ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries, 2);
  EXPECT_EQ(s.bytes, 8);
}

TEST(ResultCacheUnit, PayloadLargerThanTheBudgetIsNotInserted) {
  serve::ResultCache cache(4);
  cache.insert(1, "toolarge");
  std::string payload;
  EXPECT_FALSE(cache.lookup(1, payload));
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(ResultCacheUnit, ZeroBudgetDisablesCaching) {
  serve::ResultCache cache(0);
  cache.insert(1, "x");
  std::string payload;
  EXPECT_FALSE(cache.lookup(1, payload));
  EXPECT_EQ(cache.stats().entries, 0);
}

TEST(ResultCacheUnit, ReinsertingAKeyRefreshesInPlace) {
  serve::ResultCache cache(1024);
  cache.insert(1, "aa");
  cache.insert(1, "bbbb");
  std::string payload;
  ASSERT_TRUE(cache.lookup(1, payload));
  EXPECT_EQ(payload, "bbbb");
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_EQ(cache.stats().bytes, 4);
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

struct SocketPair {
  int fd[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
  ~SocketPair() {
    if (fd[0] >= 0) ::close(fd[0]);
    if (fd[1] >= 0) ::close(fd[1]);
  }
};

TEST(FrameCodec, RoundTripsTypeAndPayload) {
  SocketPair sp;
  serve::write_frame(sp.fd[0], serve::kFrameRequest, "hello frames");
  serve::Frame f;
  ASSERT_TRUE(serve::read_frame(sp.fd[1], f, 1024));
  EXPECT_EQ(f.type, serve::kFrameRequest);
  EXPECT_EQ(f.payload, "hello frames");
}

TEST(FrameCodec, EmptyPayloadRoundTrips) {
  SocketPair sp;
  serve::write_frame(sp.fd[0], serve::kFrameShutdown, "");
  serve::Frame f;
  ASSERT_TRUE(serve::read_frame(sp.fd[1], f, 1024));
  EXPECT_EQ(f.type, serve::kFrameShutdown);
  EXPECT_TRUE(f.payload.empty());
}

TEST(FrameCodec, CleanEofBeforeAnyByteReturnsFalse) {
  SocketPair sp;
  ::close(sp.fd[0]);
  sp.fd[0] = -1;
  serve::Frame f;
  EXPECT_FALSE(serve::read_frame(sp.fd[1], f, 1024));
}

TEST(FrameCodec, TruncatedHeaderThrows) {
  SocketPair sp;
  const char partial[5] = {1, 2, 3, 4, 5};
  ASSERT_EQ(::send(sp.fd[0], partial, sizeof partial, 0),
            static_cast<ssize_t>(sizeof partial));
  ::close(sp.fd[0]);
  sp.fd[0] = -1;
  serve::Frame f;
  EXPECT_THROW(serve::read_frame(sp.fd[1], f, 1024), serve::FrameError);
}

TEST(FrameCodec, OversizedHeaderIsRejectedBeforeThePayload) {
  SocketPair sp;
  serve::write_frame(sp.fd[0], serve::kFrameRequest, std::string(64, 'x'));
  serve::Frame f;
  EXPECT_THROW(serve::read_frame(sp.fd[1], f, 16), serve::OversizedFrame);
}

// ---------------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------------

TEST(RequestCodec, EncodeDecodeRoundTrips) {
  serve::Request request;
  request.deck_text = std::string(kMiniDeck) + "\n# trailing comment\n";
  request.deck_name = "experiments/mini.ini";
  request.overrides = {{"eta", "0.07"}, {"device.num_cells", "3"}};
  const serve::Request back =
      serve::decode_request(serve::encode_request(request));
  EXPECT_EQ(back.deck_text, request.deck_text);
  EXPECT_EQ(back.deck_name, request.deck_name);
  EXPECT_EQ(back.overrides, request.overrides);
}

TEST(RequestCodec, RejectsMalformedPreambles) {
  EXPECT_THROW(serve::decode_request("not a request\n"), serve::FrameError);
  EXPECT_THROW(serve::decode_request("qtx-serve 1 run\nset novalue\ndeck\n"),
               serve::FrameError);
  EXPECT_THROW(serve::decode_request("qtx-serve 1 run\nname x\n"),
               serve::FrameError);
  EXPECT_THROW(serve::decode_request("qtx-serve 1 run\nbogus line\ndeck\n"),
               serve::FrameError);
}

// ---------------------------------------------------------------------------
// Serve provenance section
// ---------------------------------------------------------------------------

TEST(ServeSection, AppendsProvenanceAndStripsBackToTheColdDocument) {
  const std::string body = cold_reference(kMiniDeck);
  ASSERT_GE(body.size(), 3u);
  EXPECT_EQ(body.substr(body.size() - 3), "}}\n");

  serve::ServeInfo info;
  info.queue_seconds = 0.25;
  info.solve_seconds = 1.5;
  const std::string with = serve::append_serve_section(body, info);
  EXPECT_NE(with, body);
  EXPECT_NE(with.find("\"serve\": {"), std::string::npos);
  EXPECT_EQ(with.substr(with.size() - 3), "}}\n");

  // The volatile-free projection cannot tell the two documents apart —
  // the exact comparison every bit-identity assertion below rests on.
  EXPECT_EQ(stripped(with), stripped(body));
}

TEST(ServeSection, StripDropsEveryWallClockLine) {
  const std::string s = stripped(cold_reference(kMiniDeck));
  EXPECT_EQ(s.find("\"seconds\":"), std::string::npos);
  EXPECT_EQ(s.find("\"total_seconds\":"), std::string::npos);
  EXPECT_EQ(s.find("\"performance\": {"), std::string::npos);
  EXPECT_EQ(s.find("\"kernel_seconds\": {"), std::string::npos);
  // The physics and provenance survive.
  EXPECT_NE(s.find("\"transmission\": ["), std::string::npos);
  EXPECT_NE(s.find("\"provenance\": {"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Server end to end
// ---------------------------------------------------------------------------

/// Open/close latch for the gated OBC backend below.
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  void wait() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [this] { return open; });
  }
  void open_gate() {
    {
      std::lock_guard<std::mutex> lock(m);
      open = true;
    }
    cv.notify_all();
  }
};

/// "memoized" OBC that announces the first solve on \p arrived and then
/// blocks until \p release opens — it pins a worker inside a solve for as
/// long as a test needs, which makes the drain/backpressure/timeout
/// sequences deterministic instead of sleep-calibrated.
class GatedObc : public core::ObcSolver {
 public:
  GatedObc(std::unique_ptr<core::ObcSolver> inner,
           std::shared_ptr<Gate> arrived, std::shared_ptr<Gate> release)
      : inner_(std::move(inner)),
        arrived_(std::move(arrived)),
        release_(std::move(release)) {}

  std::string_view name() const override { return inner_->name(); }

  la::Matrix solve_surface(const obc::ObcKey& key, const la::Matrix& m,
                           const la::Matrix& n,
                           const la::Matrix& np) override {
    arrived_->open_gate();
    release_->wait();
    return inner_->solve_surface(key, m, n, np);
  }

  la::Matrix solve_stein(const obc::ObcKey& key, const la::Matrix& q,
                         const la::Matrix& a, double sigma) override {
    return inner_->solve_stein(key, q, a, sigma);
  }

  const obc::MemoizerStats& stats() const override {
    return inner_->stats();
  }

 private:
  std::unique_ptr<core::ObcSolver> inner_;
  std::shared_ptr<Gate> arrived_;
  std::shared_ptr<Gate> release_;
};

class ServeEndToEnd : public ::testing::Test {
 protected:
  std::string sock(const char* name) const { return dir_.path + "/" + name; }

  /// Registry whose "gated" OBC backend blocks as described on GatedObc.
  core::StageRegistry& gated_registry() {
    arrived_ = std::make_shared<Gate>();
    release_ = std::make_shared<Gate>();
    registry_ = core::StageRegistry::with_builtins();
    auto arrived = arrived_;
    auto release = release_;
    core::StageRegistry* reg = &registry_;
    registry_.register_obc(
        "gated",
        [reg, arrived, release](const core::SimulationOptions& opt) {
          return std::make_unique<GatedObc>(reg->make_obc("memoized", opt),
                                            arrived, release);
        },
        "test backend: memoized, but blocks until the test releases it");
    return registry_;
  }

  TempDir dir_;
  core::StageRegistry registry_;
  std::shared_ptr<Gate> arrived_;
  std::shared_ptr<Gate> release_;
};

TEST_F(ServeEndToEnd, UncachedRepeatIsBitIdenticalToAColdRun) {
  serve::ServerOptions opt;
  opt.socket_path = sock("repeat.sock");
  opt.cache_bytes = 0;  // force the second request through the solver
  serve::Server server(opt);
  server.start();

  const serve::Client client(opt.socket_path);
  const serve::Client::Response r1 = client.submit(kMiniDeck);
  const serve::Client::Response r2 = client.submit(kMiniDeck);
  server.stop();

  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  const std::string reference = stripped(cold_reference(kMiniDeck));
  EXPECT_EQ(stripped(r1.payload), reference);
  EXPECT_EQ(stripped(r2.payload), reference);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_ok, 2);
  EXPECT_EQ(stats.requests_error, 0);
  EXPECT_EQ(stats.cache.hits, 0);
}

TEST_F(ServeEndToEnd, CacheHitReturnsTheStoredBytes) {
  serve::ServerOptions opt;
  opt.socket_path = sock("cache.sock");
  serve::Server server(opt);
  server.start();

  const serve::Client client(opt.socket_path);
  const serve::Client::Response r1 = client.submit(kMiniDeck);
  const serve::Client::Response r2 = client.submit(kMiniDeck);
  server.stop();

  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_NE(r1.payload.find("\"cache_hit\": false"), std::string::npos);
  EXPECT_NE(r2.payload.find("\"cache_hit\": true"), std::string::npos);
  EXPECT_EQ(stripped(r1.payload), stripped(r2.payload));
  EXPECT_EQ(stripped(r1.payload), stripped(cold_reference(kMiniDeck)));

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache.hits, 1);
  EXPECT_EQ(stats.cache.misses, 1);
}

TEST_F(ServeEndToEnd, OverridesChangeTheServedPhysics) {
  serve::ServerOptions opt;
  opt.socket_path = sock("override.sock");
  serve::Server server(opt);
  server.start();

  const serve::Client client(opt.socket_path);
  const serve::Client::Response base = client.submit(kMiniDeck);
  const serve::Client::Response hot =
      client.submit(kMiniDeck, "request.ini", {{"eta", "0.1"}});
  server.stop();

  ASSERT_TRUE(base.ok) << base.error;
  ASSERT_TRUE(hot.ok) << hot.error;
  EXPECT_NE(stripped(base.payload), stripped(hot.payload));
  EXPECT_EQ(stripped(hot.payload),
            stripped(cold_reference(kMiniDeck, {{"eta", "0.1"}})));
  // Distinct canonical decks never share a cache entry.
  EXPECT_EQ(server.stats().cache.hits, 0);
}

TEST_F(ServeEndToEnd, BadDecksGetALocatedError) {
  serve::ServerOptions opt;
  opt.socket_path = sock("bad.sock");
  serve::Server server(opt);
  server.start();

  const serve::Client client(opt.socket_path);
  const serve::Client::Response r =
      client.submit("[solver]\nbogus_key = 1\n", "bad.ini");
  server.stop();

  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("bad.ini:2"), std::string::npos) << r.error;
  EXPECT_EQ(server.stats().requests_error, 1);
}

TEST_F(ServeEndToEnd, SweepDecksAreRejected) {
  serve::ServerOptions opt;
  opt.socket_path = sock("sweep.sock");
  serve::Server server(opt);
  server.start();

  const std::string deck = std::string(kMiniDeck) +
                           "\n[sweep]\nparameter = eta\nvalues = 0.05 0.1\n";
  const serve::Client client(opt.socket_path);
  const serve::Client::Response r = client.submit(deck, "sweep.ini");
  server.stop();

  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cannot be served"), std::string::npos) << r.error;
}

TEST_F(ServeEndToEnd, UnknownFrameTypesAreAnsweredWithAnError) {
  serve::ServerOptions opt;
  opt.socket_path = sock("frame.sock");
  serve::Server server(opt);
  server.start();

  const int fd = connect_unix(opt.socket_path);
  serve::write_frame(fd, 77, "surprise");
  serve::Frame reply;
  ASSERT_TRUE(serve::read_frame(fd, reply, 1 << 20));
  ::close(fd);
  server.stop();

  EXPECT_EQ(reply.type, serve::kFrameError);
  EXPECT_NE(reply.payload.find("unknown frame type 77"), std::string::npos)
      << reply.payload;
}

TEST_F(ServeEndToEnd, OversizedRequestsAreRejectedBeforeAllocation) {
  serve::ServerOptions opt;
  opt.socket_path = sock("big.sock");
  opt.max_request_bytes = 256;
  serve::Server server(opt);
  server.start();

  const std::string big_deck = std::string(kMiniDeck) +
                               "# " + std::string(1024, 'x') + "\n";
  const serve::Client client(opt.socket_path);
  const serve::Client::Response r = client.submit(big_deck);
  server.stop();

  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("exceeds the limit"), std::string::npos) << r.error;
  EXPECT_EQ(server.stats().requests_error, 1);
}

TEST_F(ServeEndToEnd, GracefulDrainAnswersInFlightAndFailsQueued) {
  const core::StageRegistry& registry = gated_registry();
  serve::ServerOptions opt;
  opt.socket_path = sock("drain.sock");
  opt.workers = 1;
  opt.cache_bytes = 0;
  serve::Server server(opt, registry);
  server.start();

  const serve::Client client(opt.socket_path);
  const std::vector<std::pair<std::string, std::string>> gated = {
      {"obc_backend", "gated"}};
  auto fa = std::async(std::launch::async, [&] {
    return client.submit(kMiniDeck, "a.ini", gated);
  });
  arrived_->wait();  // request A is inside its solve on the only worker
  auto fb = std::async(std::launch::async, [&] {
    return client.submit(kMiniDeck, "b.ini", gated);
  });
  std::this_thread::sleep_for(100ms);  // B reaches the queue
  server.request_stop();
  std::this_thread::sleep_for(50ms);  // the stop byte flips the drain flag
  release_->open_gate();

  const serve::Client::Response ra = fa.get();
  const serve::Client::Response rb = fb.get();
  server.wait();

  ASSERT_TRUE(ra.ok) << ra.error;  // in-flight requests complete normally
  ASSERT_FALSE(rb.ok);             // queued ones get the drain error
  EXPECT_NE(rb.error.find("draining"), std::string::npos) << rb.error;
  EXPECT_EQ(server.stats().requests_ok, 1);
  EXPECT_EQ(server.stats().requests_error, 1);
}

TEST_F(ServeEndToEnd, FullQueueAnswersImmediatelyWithBackpressure) {
  const core::StageRegistry& registry = gated_registry();
  serve::ServerOptions opt;
  opt.socket_path = sock("full.sock");
  opt.workers = 1;
  opt.queue_capacity = 1;
  opt.cache_bytes = 0;
  serve::Server server(opt, registry);
  server.start();

  const serve::Client client(opt.socket_path);
  const std::vector<std::pair<std::string, std::string>> gated = {
      {"obc_backend", "gated"}};
  auto fa = std::async(std::launch::async, [&] {
    return client.submit(kMiniDeck, "a.ini", gated);
  });
  arrived_->wait();  // A occupies the worker, queue is empty
  auto fb = std::async(std::launch::async, [&] {
    return client.submit(kMiniDeck, "b.ini", gated);
  });
  std::this_thread::sleep_for(100ms);  // B fills the one queue slot
  // C is rejected by the acceptor itself — no worker involvement.
  const serve::Client::Response rc =
      client.submit(kMiniDeck, "c.ini", gated);
  ASSERT_FALSE(rc.ok);
  EXPECT_NE(rc.error.find("queue is full"), std::string::npos) << rc.error;

  release_->open_gate();
  EXPECT_TRUE(fa.get().ok);
  EXPECT_TRUE(fb.get().ok);
  server.stop();
}

TEST_F(ServeEndToEnd, QueueTimeoutsAreReportedWhenAWorkerArrives) {
  const core::StageRegistry& registry = gated_registry();
  serve::ServerOptions opt;
  opt.socket_path = sock("timeout.sock");
  opt.workers = 1;
  opt.cache_bytes = 0;
  opt.request_timeout_s = 0.05;
  serve::Server server(opt, registry);
  server.start();

  const serve::Client client(opt.socket_path);
  const std::vector<std::pair<std::string, std::string>> gated = {
      {"obc_backend", "gated"}};
  auto fa = std::async(std::launch::async, [&] {
    return client.submit(kMiniDeck, "a.ini", gated);
  });
  arrived_->wait();
  auto fb = std::async(std::launch::async, [&] {
    return client.submit(kMiniDeck, "b.ini", gated);
  });
  std::this_thread::sleep_for(150ms);  // B overstays the 50 ms budget
  release_->open_gate();

  EXPECT_TRUE(fa.get().ok);
  const serve::Client::Response rb = fb.get();
  server.stop();

  ASSERT_FALSE(rb.ok);
  EXPECT_NE(rb.error.find("timed out in the queue"), std::string::npos)
      << rb.error;
}

TEST_F(ServeEndToEnd, ShutdownFrameAcksAndDrains) {
  serve::ServerOptions opt;
  opt.socket_path = sock("down.sock");
  serve::Server server(opt);
  server.start();

  const serve::Client client(opt.socket_path);
  EXPECT_TRUE(client.shutdown());
  server.wait();
  EXPECT_FALSE(server.running());
  // The socket file is gone, so a second shutdown finds nothing listening.
  EXPECT_FALSE(client.shutdown());
}

// ---------------------------------------------------------------------------
// Concurrent clients
// ---------------------------------------------------------------------------

TEST(ServeConcurrent, StressedResponsesMatchSequentialReferences) {
  TempDir dir;
  serve::ServerOptions opt;
  opt.socket_path = dir.path + "/stress.sock";
  opt.workers = 4;
  serve::Server server(opt);
  server.start();

  // Clients differ in physics (eta) and in pipeline configuration (worker
  // count, batch layout), so concurrent solves run differently shaped
  // energy pipelines side by side. la_backend stays fixed: it is still
  // installed process-wide.
  using Overrides = std::vector<std::pair<std::string, std::string>>;
  const std::vector<Overrides> configs = {
      {{"eta", "0.04"}, {"num_threads", "1"}, {"energy_batch", "0"}},
      {{"eta", "0.05"}, {"num_threads", "2"}, {"energy_batch", "3"}},
      {{"eta", "0.06"}, {"num_threads", "4"}, {"energy_batch", "2"}},
      {{"eta", "0.04"}, {"num_threads", "4"}, {"energy_batch", "1"}},
      {{"eta", "0.05"}, {"num_threads", "1"}, {"energy_batch", "8"}},
      {{"eta", "0.06"}, {"num_threads", "2"}, {"energy_batch", "0"}},
  };
  std::vector<std::string> references;
  references.reserve(configs.size());
  for (const Overrides& config : configs)
    references.push_back(stripped(cold_reference(kMiniDeck, config)));

  constexpr int kClients = 12;
  std::vector<std::future<serve::Client::Response>> futures;
  futures.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    const Overrides config =
        configs[static_cast<std::size_t>(i) % configs.size()];
    futures.push_back(std::async(std::launch::async, [&opt, config] {
      const serve::Client client(opt.socket_path);
      return client.submit(kMiniDeck, "request.ini", config);
    }));
  }
  for (int i = 0; i < kClients; ++i) {
    const serve::Client::Response r =
        futures[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(r.ok) << "client " << i << ": " << r.error;
    EXPECT_EQ(stripped(r.payload),
              references[static_cast<std::size_t>(i) % references.size()])
        << "client " << i << " diverged from its sequential reference";
  }
  server.stop();
  EXPECT_EQ(server.stats().requests_ok, kClients);
  EXPECT_EQ(server.stats().requests_error, 0);
}

// ---------------------------------------------------------------------------
// Served golden (also registered as ctest test golden.served_quickstart)
// ---------------------------------------------------------------------------

TEST(ServedGolden, QuickstartTransmissionMatchesTheGoldenFile) {
  const std::string deck =
      read_file(std::string(QTX_SCENARIO_DIR) + "/quickstart.ini");
  TempDir dir;
  serve::ServerOptions opt;
  opt.socket_path = dir.path + "/golden.sock";
  serve::Server server(opt);
  server.start();

  const serve::Client client(opt.socket_path);
  const serve::Client::Response r = client.submit(deck, "quickstart.ini");
  server.stop();
  ASSERT_TRUE(r.ok) << r.error;

  const std::vector<double> got = extract_transmission(r.payload);
  const std::vector<double> want =
      read_golden_values("quickstart_transmission");
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i])
        << "served transmission drifted from the golden file at point " << i;
  }
}

// ---------------------------------------------------------------------------
// CLI smoke
// ---------------------------------------------------------------------------

TEST(ServeCli, DaemonRoundTripsADeckAndDrainsOnShutdown) {
  TempDir dir;
  const std::string sock = dir.path + "/cli.sock";
  {
    std::ofstream deck(dir.path + "/mini.ini");
    deck << kMiniDeck;
  }

  const std::string serve_cmd = std::string(QTX_QTX_BIN) +
                                " serve --socket " + sock +
                                " --workers 2 --quiet > " + dir.path +
                                "/serve.log 2>&1 &";
  ASSERT_EQ(std::system(serve_cmd.c_str()), 0);
  ASSERT_TRUE(serve::Client::wait_ready(sock, 15.0))
      << read_file(dir.path + "/serve.log");

  const std::string submit_cmd =
      std::string(QTX_QTX_BIN) + " submit " + dir.path +
      "/mini.ini --socket " + sock + " --set eta=0.06 > " + dir.path +
      "/reply.json 2> " + dir.path + "/submit.log";
  EXPECT_EQ(std::system(submit_cmd.c_str()), 0)
      << read_file(dir.path + "/submit.log");
  const std::string reply = read_file(dir.path + "/reply.json");
  EXPECT_NE(reply.find("\"scenario\": \"mini\""), std::string::npos);
  EXPECT_NE(reply.find("\"serve\": {"), std::string::npos);
  EXPECT_EQ(stripped(reply),
            stripped(cold_reference(kMiniDeck, {{"eta", "0.06"}},
                                    dir.path + "/mini.ini")));

  const std::string down_cmd = std::string(QTX_QTX_BIN) +
                               " submit --socket " + sock +
                               " --shutdown --quiet";
  EXPECT_EQ(std::system(down_cmd.c_str()), 0);
  // The drained daemon unlinks its socket on the way out.
  const auto deadline = std::chrono::steady_clock::now() + 15s;
  while (fs::exists(sock) && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(10ms);
  EXPECT_FALSE(fs::exists(sock));
}

}  // namespace
}  // namespace qtx
