#pragma once

/// \file protocol.hpp
/// Wire protocol of the `qtx serve` daemon: length-prefixed frames over an
/// AF_UNIX stream socket, deliberately the same 16-byte header shape as
/// `par::SocketComm` ({u64 type, u64 count} in native byte order) so the
/// repo has exactly one framing idiom. For serve frames `count` is the
/// payload size in bytes and `type` selects the message:
///
///   0 request       deck text + overrides (see encode_request)
///   1 response      a results.json payload (UTF-8 bytes, verbatim)
///   2 error         a located "<file>:<line>: ..." diagnostic string
///   3 shutdown      client asks the server to drain and exit (no payload)
///   4 shutdown-ack  server confirms the drain has begun (no payload)
///   5 stats         client asks for a live metrics snapshot (no payload);
///                   answered with a response frame carrying the
///                   obs::MetricsRegistry JSON snapshot, synchronously
///                   from the acceptor so it never queues behind solves
///
/// One request per connection (connect → request frame → response/error
/// frame → close): no pipelining, no reconnect state, so a crashed client
/// can never wedge a worker. The request payload is plain text:
///
///     qtx-serve 1 run
///     name <label for file:line diagnostics>
///     set <key>=<value>          # zero or more, applied in order
///     deck
///     <the scenario deck, verbatim until EOF>
///
/// Responses are byte-identical to what a cold `qtx run` of the same deck
/// writes to results.json, plus an appended "serve" provenance section
/// (cache hit?, queue wait, solve wall time).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace qtx::serve {

/// Frame type codes (the `type` header field).
inline constexpr std::uint64_t kFrameRequest = 0;
inline constexpr std::uint64_t kFrameResponse = 1;
inline constexpr std::uint64_t kFrameError = 2;
inline constexpr std::uint64_t kFrameShutdown = 3;
inline constexpr std::uint64_t kFrameShutdownAck = 4;
inline constexpr std::uint64_t kFrameStats = 5;

/// Bytes of the {u64 type, u64 count} frame header.
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Malformed or truncated wire traffic (bad header, short read/write,
/// socket error). The server answers these with an error frame and closes.
class FrameError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A frame whose declared payload size exceeds the reader's limit. Raised
/// *before* reading the payload, so an adversarial 16-byte header cannot
/// make the server allocate gigabytes.
class OversizedFrame : public FrameError {
 public:
  using FrameError::FrameError;
};

/// One decoded frame: the type code and the raw payload bytes.
struct Frame {
  std::uint64_t type = 0;  ///< kFrameRequest ... kFrameStats
  std::string payload;     ///< `count` bytes, verbatim
};

/// Blocking read of one frame from \p fd. Returns false on a clean EOF
/// before any header byte (the peer closed without sending — e.g. a
/// connect-probe); throws FrameError on truncation or socket errors and
/// OversizedFrame when the header announces more than
/// \p max_payload_bytes.
bool read_frame(int fd, Frame& frame, std::size_t max_payload_bytes);

/// Blocking write of one frame (header + payload) to \p fd; throws
/// FrameError when the peer is gone. SIGPIPE is suppressed per-call
/// (MSG_NOSIGNAL), not process-wide.
void write_frame(int fd, std::uint64_t type, const std::string& payload);

/// One decoded request: the deck to run plus CLI-style overrides.
struct Request {
  std::string deck_text;  ///< scenario deck, verbatim
  /// Label for diagnostics and the scenario-name file-stem fallback; the
  /// default matches what error messages show for anonymous submissions.
  std::string deck_name = "request.ini";
  /// `--set key=value` pairs, applied to the parsed deck in order.
  std::vector<std::pair<std::string, std::string>> overrides;
};

/// Serialize \p request into the request-frame payload text.
std::string encode_request(const Request& request);

/// Parse a request-frame payload; throws FrameError with a "malformed
/// request:" message on anything that does not follow encode_request's
/// grammar (unknown magic line, override without '=', missing deck
/// marker).
Request decode_request(const std::string& payload);

/// Per-request provenance appended to a response's results.json as the
/// "serve" section.
struct ServeInfo {
  bool cache_hit = false;       ///< payload came from the ResultCache
  double queue_seconds = 0.0;   ///< time spent waiting in the request queue
  double solve_seconds = 0.0;   ///< wall time of the solve (0 on cache hit)
};

/// Splice the "serve" provenance section into a rendered results.json
/// document (appended as the last top-level member, the same append-only
/// pattern as the "performance" and "comm" sections). The input must be
/// `io::render_result_json` output; the result is what goes on the wire.
std::string append_serve_section(const std::string& results_json,
                                 const ServeInfo& info);

/// Drop the wall-time-bearing parts of a results.json document — every
/// "seconds"/"total_seconds" line and the "kernel_seconds", "performance",
/// and "serve" sections — so two runs of the same deck can be compared
/// byte-for-byte on everything deterministic (physics observables,
/// provenance, convergence history). This is the comparison the serve
/// tests and throughput bench use to assert served payloads are
/// bit-identical to cold runs; it relies on the one-value-per-line layout
/// of io::JsonWriter, not on general JSON parsing.
std::string strip_volatile_sections(const std::string& results_json);

}  // namespace qtx::serve
