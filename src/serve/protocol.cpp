#include "serve/protocol.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/check.hpp"
#include "common/strings.hpp"

namespace qtx::serve {
namespace {

namespace qs = qtx::strings;

[[noreturn]] void fail_errno(const char* what) {
  std::ostringstream os;
  os << what << ": " << std::strerror(errno);
  throw FrameError(os.str());
}

/// recv exactly \p n bytes into \p buf; returns bytes read before EOF.
std::size_t recv_all(int fd, char* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r == 0) return got;  // peer closed
    if (r < 0) {
      if (errno == EINTR) continue;
      fail_errno("recv failed");
    }
    got += static_cast<std::size_t>(r);
  }
  return got;
}

void send_all(int fd, const char* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE here instead of a
    // process-wide SIGPIPE — library code must not change signal
    // dispositions behind the app's back.
    const ssize_t r = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      fail_errno("send failed");
    }
    sent += static_cast<std::size_t>(r);
  }
}

}  // namespace

bool read_frame(int fd, Frame& frame, std::size_t max_payload_bytes) {
  char header[kFrameHeaderBytes];
  const std::size_t got = recv_all(fd, header, sizeof header);
  if (got == 0) return false;  // clean EOF before any byte
  if (got < sizeof header) {
    std::ostringstream os;
    os << "truncated frame header (" << got << " of " << sizeof header
       << " bytes)";
    throw FrameError(os.str());
  }
  std::uint64_t count = 0;
  std::memcpy(&frame.type, header, sizeof frame.type);
  std::memcpy(&count, header + sizeof frame.type, sizeof count);
  if (count > max_payload_bytes) {
    std::ostringstream os;
    os << "frame payload of " << count << " bytes exceeds the limit of "
       << max_payload_bytes << " bytes";
    throw OversizedFrame(os.str());
  }
  frame.payload.resize(static_cast<std::size_t>(count));
  if (count > 0) {
    const std::size_t body = recv_all(fd, frame.payload.data(),
                                      frame.payload.size());
    if (body < frame.payload.size()) {
      std::ostringstream os;
      os << "truncated frame payload (" << body << " of "
         << frame.payload.size() << " bytes)";
      throw FrameError(os.str());
    }
  }
  return true;
}

void write_frame(int fd, std::uint64_t type, const std::string& payload) {
  char header[kFrameHeaderBytes];
  const std::uint64_t count = payload.size();
  std::memcpy(header, &type, sizeof type);
  std::memcpy(header + sizeof type, &count, sizeof count);
  send_all(fd, header, sizeof header);
  if (!payload.empty()) send_all(fd, payload.data(), payload.size());
}

std::string encode_request(const Request& request) {
  std::ostringstream os;
  os << "qtx-serve 1 run\n";
  os << "name " << request.deck_name << "\n";
  for (const auto& [key, value] : request.overrides)
    os << "set " << key << "=" << value << "\n";
  os << "deck\n";
  os << request.deck_text;
  return os.str();
}

Request decode_request(const std::string& payload) {
  Request request;
  std::istringstream in(payload);
  std::string line;
  if (!std::getline(in, line) || line != "qtx-serve 1 run") {
    throw FrameError("malformed request: expected the \"qtx-serve 1 run\" "
                     "magic line, got \"" + line + "\"");
  }
  bool saw_deck = false;
  while (std::getline(in, line)) {
    if (line == "deck") {
      saw_deck = true;
      break;
    }
    if (line.rfind("name ", 0) == 0) {
      request.deck_name = line.substr(5);
      continue;
    }
    if (line.rfind("set ", 0) == 0) {
      const std::string kv = line.substr(4);
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw FrameError("malformed request: override \"" + line +
                         "\" is not \"set key=value\"");
      }
      request.overrides.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
      continue;
    }
    throw FrameError("malformed request: unexpected preamble line \"" +
                     line + "\" (expected \"name\", \"set\", or \"deck\")");
  }
  if (!saw_deck) {
    throw FrameError("malformed request: missing the \"deck\" marker line");
  }
  // The deck is everything after the marker, verbatim.
  std::ostringstream deck;
  deck << in.rdbuf();
  request.deck_text = deck.str();
  return request;
}

std::string append_serve_section(const std::string& results_json,
                                 const ServeInfo& info) {
  // render_result_json documents end "...}}\n": the last section's close
  // glued to the top-level '}' (JsonWriter writes no newline at depth 0),
  // then the trailing newline. Splice the new section between the two.
  QTX_CHECK_MSG(results_json.size() >= 2 &&
                    results_json[results_json.size() - 1] == '\n' &&
                    results_json[results_json.size() - 2] == '}',
                "append_serve_section expects render_result_json output "
                "(document must end \"}\\n\")");
  std::ostringstream section;
  section << ",\n  \"serve\": {\n"
          << "    \"cache_hit\": " << (info.cache_hit ? "true" : "false")
          << ",\n"
          << "    \"queue_seconds\": " << qs::format_double(info.queue_seconds)
          << ",\n"
          << "    \"solve_seconds\": " << qs::format_double(info.solve_seconds)
          << "\n  }";
  std::string out = results_json;
  out.insert(out.size() - 2, section.str());
  return out;
}

std::string strip_volatile_sections(const std::string& results_json) {
  std::istringstream in(results_json);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    const std::string t = qs::trim(line);
    // Scalar wall times (iteration history, result totals).
    if (t.rfind("\"seconds\":", 0) == 0 ||
        t.rfind("\"total_seconds\":", 0) == 0)
      continue;
    const bool block = t.rfind("\"kernel_seconds\": {", 0) == 0 ||
                       t.rfind("\"performance\": {", 0) == 0 ||
                       t.rfind("\"serve\": {", 0) == 0;
    if (!block) {
      out << line << "\n";
      continue;
    }
    // Consume the whole block by brace depth (kernel names contain no
    // braces). Whatever follows the block's own closing brace on its last
    // line — typically the glued top-level '}' — survives, minus the
    // separator comma that belonged to the dropped member.
    int depth = 0;
    std::string remainder;
    std::string cur = line;
    for (;;) {
      bool closed = false;
      for (std::size_t i = 0; i < cur.size(); ++i) {
        if (cur[i] == '{') {
          ++depth;
        } else if (cur[i] == '}') {
          --depth;
          if (depth == 0) {
            remainder = cur.substr(i + 1);
            closed = true;
            break;
          }
        }
      }
      if (closed || !std::getline(in, cur)) break;
    }
    if (!remainder.empty() && remainder.front() == ',')
      remainder.erase(0, 1);
    if (!remainder.empty()) out << remainder << "\n";
  }
  return out.str();
}

}  // namespace qtx::serve
