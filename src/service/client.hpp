// Minimal qbpartd client: a blocking TCP connection to a local server
// speaking either edge framing (NDJSON lines or binary wire frames --
// docs/PROTOCOL.md), plus helpers shared by qbpart_submit and the service
// tests.  Pipe mode needs no client class at all -- requests are plain
// NDJSON lines on stdin -- so the interesting part here is only
// connect/send/recv with message buffering.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "service/protocol.hpp"

namespace qbp::service {

/// Render one binary reply frame as the NDJSON line the same reply has in
/// line framing: a result through result_to_json, a note through
/// format_note.  False, with a message, for a malformed payload or a frame
/// type that is no reply.
[[nodiscard]] bool reply_frame_to_line(std::uint8_t type,
                                       std::string_view payload,
                                       std::string& line, std::string& error);

class TcpClient {
 public:
  TcpClient() = default;
  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Connect to 127.0.0.1:`port`.  False on failure; see error().
  [[nodiscard]] bool connect(std::uint16_t port);

  /// Send one request line (newline appended here).  False on failure.
  [[nodiscard]] bool send_line(std::string_view line);

  /// Block until one full response line arrives (newline stripped).
  /// False on EOF or error.
  [[nodiscard]] bool read_line(std::string& out);

  /// Send raw bytes verbatim (a pre-encoded wire frame).  False on failure.
  [[nodiscard]] bool send_bytes(std::string_view bytes);

  /// Block until one full binary frame arrives; yields its message type and
  /// payload bytes.  False on EOF, socket error, or a malformed frame.
  [[nodiscard]] bool read_frame(std::uint8_t& type, std::string& payload);

  void close();

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  int fd_ = -1;
  LineBuffer lines_;     // read_line's receive buffer
  std::string pending_;  // read_frame's receive buffer
  std::string error_;
};

}  // namespace qbp::service
