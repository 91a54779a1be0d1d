#include "service/client.hpp"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/wire.hpp"
#include "util/wire.hpp"

namespace qbp::service {

bool reply_frame_to_line(std::uint8_t type, std::string_view payload,
                         std::string& line, std::string& error) {
  if (static_cast<WireMsg>(type) == WireMsg::kResult) {
    JobResult result;
    if (!decode_result(payload, result, error)) return false;
    line = result_to_json(result).dump();
    return true;
  }
  Note note;
  if (!decode_note(type, payload, note, error)) return false;
  line = format_note(note);
  return true;
}

TcpClient::~TcpClient() { close(); }

void TcpClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  lines_ = LineBuffer();
  pending_.clear();
}

bool TcpClient::connect(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error_ = std::strerror(errno);
    return false;
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) < 0) {
    error_ = std::strerror(errno);
    close();
    return false;
  }
  return true;
}

bool TcpClient::send_line(std::string_view line) {
  std::string buffer(line);
  buffer.push_back('\n');
  return send_bytes(buffer);
}

bool TcpClient::send_bytes(std::string_view bytes) {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  while (!bytes.empty()) {
    const ssize_t written =
        ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      error_ = std::strerror(errno);
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(written));
  }
  return true;
}

bool TcpClient::read_line(std::string& out) {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  for (;;) {
    std::string_view line;
    if (lines_.next(line)) {
      out.assign(line);
      return true;
    }
    char buffer[4096];
    const ssize_t count = ::read(fd_, buffer, sizeof buffer);
    if (count < 0) {
      if (errno == EINTR) continue;
      error_ = std::strerror(errno);
      return false;
    }
    if (count == 0) {
      error_ = "connection closed";
      return false;
    }
    lines_.append(std::string_view(buffer, static_cast<std::size_t>(count)));
  }
}

bool TcpClient::read_frame(std::uint8_t& type, std::string& payload) {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  for (;;) {
    wire::FrameView frame;
    std::string frame_error;
    switch (wire::peek_frame(pending_, frame, frame_error)) {
      case wire::FrameStatus::kFrame:
        type = frame.type;
        payload.assign(frame.payload.data(), frame.payload.size());
        pending_.erase(0, frame.frame_size);
        return true;
      case wire::FrameStatus::kBad:
        error_ = frame_error;
        return false;
      case wire::FrameStatus::kIncomplete:
        break;
    }
    char buffer[4096];
    const ssize_t count = ::read(fd_, buffer, sizeof buffer);
    if (count < 0) {
      if (errno == EINTR) continue;
      error_ = std::strerror(errno);
      return false;
    }
    if (count == 0) {
      error_ = "connection closed";
      return false;
    }
    pending_.append(buffer, static_cast<std::size_t>(count));
  }
}

}  // namespace qbp::service
