// Fuzz target for the binary wire protocol (util/wire + service/wire) --
// the bytes a hostile client can push at a qbpartd socket.  The daemon's
// survival contract is that frame decoding NEVER aborts: malformed input
// must surface as a false return with a message (the serve loop answers
// with an error frame and fails only that connection).
//
// Properties checked on every input:
//   * peek_frame never crashes, and its verdict is internally consistent
//     (kFrame implies the advertised frame fits the input; consuming the
//     frame and re-peeking the remainder also never crashes);
//   * every message decoder (submit, cancel, result, note) returns cleanly
//     on arbitrary payload bytes -- no aborts, no exceptions;
//   * canonical fixed point: when a payload DOES decode, re-encoding the
//     decoded struct and decoding that again must succeed and re-encode to
//     the identical bytes.  One encode round normalizes (e.g. a submit
//     carrying unsorted bundle text becomes a canonical struct); the
//     second round must be a fixed point, or two servers would disagree
//     about one request's cache fingerprint.
//
// Build modes (fuzz/CMakeLists.txt): libFuzzer under QBPART_SANITIZE=fuzzer,
// a corpus-replay main otherwise (also registered as a ctest regression
// test over fuzz/corpus/wire/).
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "service/protocol.hpp"
#include "service/wire.hpp"
#include "util/wire.hpp"

namespace {

using qbp::service::JobResult;
using qbp::service::Note;
using qbp::service::Request;
using qbp::service::WireMsg;

/// Re-encode a decoded request/response as a full frame; empty when the
/// payload does not decode (unknown type bytes decode nowhere).
std::string reencode(std::uint8_t type, std::string_view payload) {
  std::string error;
  std::string out;
  Request request;
  JobResult result;
  Note note;
  if (static_cast<WireMsg>(type) == WireMsg::kResult) {
    if (qbp::service::decode_result(payload, result, error)) {
      qbp::service::encode_result_frame(result, out);
    }
  } else if (qbp::service::decode_request(type, payload, request, error)) {
    qbp::service::encode_request_frame(request, out);
  } else if (qbp::service::decode_note(type, payload, note, error)) {
    qbp::service::encode_note_frame(note, out);
  }
  return out;
}

void check_frame(std::uint8_t type, std::string_view payload) {
  const std::string first = reencode(type, payload);
  if (first.empty()) return;  // payload rejected: the expected hostile path

  // The re-encoded frame must itself parse, and re-encoding THAT must be a
  // byte-for-byte fixed point (canonical form reached in one round).
  qbp::wire::FrameView frame;
  std::string error;
  if (qbp::wire::peek_frame(first, frame, error) !=
          qbp::wire::FrameStatus::kFrame ||
      frame.frame_size != first.size()) {
    std::abort();  // encoder emitted an unparseable or ragged frame
  }
  const std::string second = reencode(frame.type, frame.payload);
  if (second != first) {
    std::abort();  // decode -> encode failed to reach a fixed point
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);

  // Walk the input as a frame stream, exactly like the serve loop's
  // FrameBuffer drain: peek, dispatch, consume, repeat.
  std::string_view rest = bytes;
  for (;;) {
    qbp::wire::FrameView frame;
    std::string error;
    const auto status = qbp::wire::peek_frame(rest, frame, error);
    if (status == qbp::wire::FrameStatus::kIncomplete) break;
    if (status == qbp::wire::FrameStatus::kBad) {
      if (error.empty()) std::abort();  // kBad must explain itself
      break;
    }
    if (frame.frame_size > rest.size()) {
      std::abort();  // kFrame promised bytes the buffer does not hold
    }
    check_frame(frame.type, frame.payload);
    rest.remove_prefix(frame.frame_size);
  }

  // Also attack the message decoders directly: the raw input as payload
  // bytes for every known type, bypassing the framing layer.
  for (const auto type :
       {WireMsg::kSubmit, WireMsg::kCancel, WireMsg::kResult, WireMsg::kReject,
        WireMsg::kError, WireMsg::kCancelAck, WireMsg::kShutdownAck,
        WireMsg::kStatsReply}) {
    check_frame(static_cast<std::uint8_t>(type), bytes);
  }
  return 0;
}
