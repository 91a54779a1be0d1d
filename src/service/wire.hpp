// Binary message codec for the qbpartd wire protocol: direct encode /
// decode between util/wire frames and the protocol structs (Request,
// JobResult) with no intermediate JSON value tree on the hot path.
//
// Framing (docs/PROTOCOL.md): every message is one util/wire frame whose
// type byte is a WireMsg below.  NDJSON remains the default edge format;
// a connection opts into binary implicitly by starting with the frame
// magic (server auto-detect) or explicitly via --wire binary.
//
// Determinism contract: doubles travel as raw IEEE-754 bits and a submit
// can carry the fully parsed problem (kProblemStruct).  Every payload
// decodes through one construction, the text parser's
// (core/problem_io.cpp): add the components, wires and constraints, and
// let the PartitionProblem constructor finalize them (sort, merge, fill).
// encode_problem still emits the canonical merged and sorted order, so
// re-encoding is a fixed point; a payload in any other pair order decodes
// to the same instance.  Every decode ends in PartitionProblem::validate():
// same content fingerprint, same cache behaviour, bit-identical solver
// results across framings.
//
// Decoders never throw or abort on malformed payloads; they return false
// with a one-line error (the caller answers with an error frame and fails
// only that connection).  Every structural guard of the text parser
// (the partition / bundle / total-wire caps, which both read from
// core/problem_io.hpp, endpoint ranges, positive multiplicities, finite
// bounds) applies here too, so hostile payloads cannot reach a QBP_CHECK
// abort inside the core types.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/problem.hpp"
#include "service/protocol.hpp"
#include "util/wire.hpp"

namespace qbp::service {

/// Frame type byte (util/wire header offset 5).  Values are wire ABI:
/// append only, never renumber.
enum class WireMsg : std::uint8_t {
  // Requests (client -> server).
  kSubmit = 1,
  kCancel = 2,
  kStats = 3,
  kShutdown = 4,
  // Responses (server -> client).
  kResult = 5,
  kReject = 6,
  kError = 7,
  kStatsReply = 8,   // payload: the stats JSON text (cold debug surface)
  kCancelAck = 9,
  kShutdownAck = 10,
};

/// How a submit payload carries its problem.
enum class ProblemKind : std::uint8_t {
  kText = 1,           // inline .qp source (server parses, as NDJSON does)
  kFile = 2,           // server-local path
  kProblemStruct = 3,  // structured payload, zero-parse on the server
};

/// Encode `request` as one complete frame appended to `out`.  Submits
/// prefer request.problem (kProblemStruct) when set, then problem_text,
/// then problem_file -- matching what decode_submit reconstructs.
void encode_request_frame(const Request& request, std::string& out);

/// Decode a kSubmit payload.  Mirrors parse_request's validation rules and
/// messages; a kProblemStruct payload additionally materializes
/// `out.problem` so run_job can skip the text parse entirely.
[[nodiscard]] bool decode_submit(std::string_view payload, Request& out,
                                 std::string& error);
/// Decode one request frame of message type `type`: the counterpart of
/// encode_request_frame.  A cancel carries its (non-empty) id only; stats
/// and shutdown frames carry nothing the server reads; any other type
/// fails with "unknown frame type N".
[[nodiscard]] bool decode_request(std::uint8_t type, std::string_view payload,
                                  Request& out, std::string& error);

/// Encode a finished job as one complete kResult frame appended to `out`.
void encode_result_frame(const JobResult& result, std::string& out);
[[nodiscard]] bool decode_result(std::string_view payload, JobResult& out,
                                 std::string& error);

/// The five note replies (protocol.hpp Note): every kind's payload is the
/// same two strings, (id, text), under the frame type of its NoteKind.
void encode_note_frame(const Note& note, std::string& out);
/// Decode a note frame of message type `type`; false, with a message, when
/// `type` is no note type or the payload is not exactly (id, text).
[[nodiscard]] bool decode_note(std::uint8_t type, std::string_view payload,
                               Note& out, std::string& error);

/// Structured problem payload, shared by submit encode/decode and the
/// round-trip tests.  encode_problem requires a constructed (finalized)
/// PartitionProblem so the emitted bundle list is canonical.
void encode_problem(const PartitionProblem& problem, wire::Writer& writer);
[[nodiscard]] bool decode_problem(wire::Reader& reader,
                                  std::shared_ptr<const PartitionProblem>& out,
                                  std::string& error);

}  // namespace qbp::service
