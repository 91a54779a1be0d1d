// qbpart_submit: build qbpartd request lines and (optionally) deliver them.
//
//   # print request lines for piping into a pipe-mode server
//   ./qbpart_submit --problem sample.qp --starts 8 --seed 7 --print |
//     ./qbpartd --workers 4
//
//   # talk to a TCP server and wait for the results
//   ./qbpart_submit --tcp 7193 --problem sample.qp --deadline-ms 500
//   ./qbpart_submit --tcp 7193 --stats
//   ./qbpart_submit --tcp 7193 --shutdown
//
// --count N submits the same job spec N times (ids id-0 .. id-N-1), which
// is how the CI smoke test and the bench load generator exercise queueing.
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/problem_io.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/wire.hpp"
#include "solver_flags.hpp"
#include "util/cli.hpp"

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string problem_path;
  std::string id;
  std::string cancel_id;
  std::int64_t priority = 0;
  std::int64_t count = 1;
  std::int64_t tcp_port = -1;
  std::string cache_mode = "on";
  std::string warm_mode = "on";
  double deadline_ms = 0.0;
  bool by_path = false;
  bool stats = false;
  bool shutdown = false;
  bool print_only = false;
  std::string wire = "ndjson";

  qbp::CliParser cli("qbpart_submit",
                     "compose qbpartd job requests; print them or deliver "
                     "them over TCP");
  cli.add_string("problem", problem_path, "problem file (.qp) to submit");
  qbp::SolverFlags solver_flags(cli, {});
  cli.add_string("id", id, "job id (server assigns one when empty)");
  cli.add_string("cache", cache_mode,
                 "on | off: let the server answer from its solution cache");
  cli.add_string("warm-start", warm_mode,
                 "on | off: allow the ECO warm re-solve path (off still "
                 "permits exact cache hits)");
  cli.add_int("priority", priority, "higher runs first");
  cli.add_double("deadline-ms", deadline_ms, "per-job deadline; 0 = none");
  cli.add_int("count", count, "submit the job spec this many times");
  cli.add_flag("by-path", by_path,
               "send the file path instead of embedding its contents "
               "(server must share the filesystem)");
  cli.add_flag("stats", stats, "request a metrics snapshot");
  cli.add_string("cancel", cancel_id, "cancel this job id");
  cli.add_flag("shutdown", shutdown, "ask the server to drain and exit");
  cli.add_int("tcp", tcp_port, "deliver to 127.0.0.1:PORT and await replies");
  cli.add_flag("print", print_only, "print request lines to stdout only");
  cli.add_string("wire", wire,
                 "ndjson (default) | binary: binary parses the problem "
                 "locally and ships wire frames (docs/PROTOCOL.md); "
                 "replies print as the same NDJSON lines either way");
  if (const auto exit_code = cli.run(argc, argv)) return *exit_code;
  const auto spec = solver_flags.spec();
  if (!spec) return 1;
  if (cache_mode != "on" && cache_mode != "off") {
    std::fprintf(stderr, "--cache must be on|off\n");
    return 1;
  }
  if (warm_mode != "on" && warm_mode != "off") {
    std::fprintf(stderr, "--warm-start must be on|off\n");
    return 1;
  }
  if (wire != "ndjson" && wire != "binary") {
    std::fprintf(stderr, "--wire must be ndjson|binary\n");
    return 1;
  }
  const bool binary = wire == "binary";

  // Rendered messages: NDJSON lines, or complete wire frames in binary mode.
  std::vector<std::string> lines;
  std::size_t expected_replies = 0;
  const auto render = [binary, &lines](const qbp::service::Request& request) {
    if (binary) {
      std::string frame;
      qbp::service::encode_request_frame(request, frame);
      lines.push_back(std::move(frame));
    } else {
      lines.push_back(qbp::service::format_request(request));
    }
  };

  if (!problem_path.empty()) {
    qbp::service::Request request;
    request.type = qbp::service::RequestType::kSubmit;
    request.solver = *spec;
    request.cache = cache_mode == "on";
    request.warm_start = warm_mode == "on";
    request.deadline_ms = deadline_ms;
    request.priority = static_cast<std::int32_t>(priority);
    if (by_path) {
      request.problem_file = problem_path;
    } else if (binary) {
      // Binary framing ships the parsed problem struct: the server's
      // zero-copy decode path skips the text parser entirely.
      auto problem = std::make_shared<qbp::PartitionProblem>();
      const auto parsed = qbp::read_problem_file(problem_path, *problem);
      if (!parsed.ok) {
        std::fprintf(stderr, "cannot parse '%s': %s\n", problem_path.c_str(),
                     parsed.message.c_str());
        return 1;
      }
      request.problem = std::move(problem);
    } else if (!read_file(problem_path, request.problem_text)) {
      std::fprintf(stderr, "cannot read '%s'\n", problem_path.c_str());
      return 1;
    }
    for (std::int64_t k = 0; k < count; ++k) {
      request.id = id.empty()
                       ? std::string{}
                       : (count == 1 ? id : id + "-" + std::to_string(k));
      render(request);
      ++expected_replies;
    }
  }
  if (!cancel_id.empty()) {
    qbp::service::Request request;
    request.type = qbp::service::RequestType::kCancel;
    request.id = cancel_id;
    render(request);
    ++expected_replies;
  }
  if (stats) {
    qbp::service::Request request;
    request.type = qbp::service::RequestType::kStats;
    render(request);
    ++expected_replies;
  }
  if (shutdown) {
    qbp::service::Request request;
    request.type = qbp::service::RequestType::kShutdown;
    render(request);
    ++expected_replies;
  }
  if (lines.empty()) {
    std::fprintf(stderr,
                 "nothing to send: pass --problem, --stats, --cancel or "
                 "--shutdown\n%s",
                 cli.usage().c_str());
    return 1;
  }

  if (print_only || tcp_port < 0) {
    if (binary) {
      // Raw frames (a pipe-mode server reads these verbatim from stdin).
      for (const auto& frame : lines) {
        std::fwrite(frame.data(), 1, frame.size(), stdout);
      }
    } else {
      for (const auto& line : lines) std::printf("%s\n", line.c_str());
    }
    return 0;
  }
  if (tcp_port > 65535) {
    std::fprintf(stderr, "--tcp out of range\n");
    return 1;
  }

  qbp::service::TcpClient client;
  if (!client.connect(static_cast<std::uint16_t>(tcp_port))) {
    std::fprintf(stderr, "connect to 127.0.0.1:%lld failed: %s\n",
                 static_cast<long long>(tcp_port), client.error().c_str());
    return 1;
  }
  for (const auto& line : lines) {
    const bool sent = binary ? client.send_bytes(line)
                             : client.send_line(line);
    if (!sent) {
      std::fprintf(stderr, "send failed: %s\n", client.error().c_str());
      return 1;
    }
  }
  // Binary replies print as the NDJSON line of the same reply, so output
  // is identical to --wire ndjson runs.
  int exit_code = 0;
  for (std::size_t k = 0; k < expected_replies; ++k) {
    std::string reply;
    std::uint8_t type = 0;
    std::string payload;
    if (binary ? !client.read_frame(type, payload) : !client.read_line(reply)) {
      std::fprintf(stderr, "server closed the connection: %s\n",
                   client.error().c_str());
      return 1;
    }
    std::string error;
    if (binary &&
        !qbp::service::reply_frame_to_line(type, payload, reply, error)) {
      std::fprintf(stderr, "bad reply frame: %s\n", error.c_str());
      return 1;
    }
    std::printf("%s\n", reply.c_str());
    if (reply.find("\"type\":\"reject\"") != std::string::npos ||
        reply.find("\"type\":\"error\"") != std::string::npos) {
      exit_code = 2;
    }
  }
  return exit_code;
}
