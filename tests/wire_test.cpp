// Unit tests for the binary wire protocol: util/wire framing + payload
// primitives, the service message codec (service/wire), and the bulk
// "straight into normalized CSR form" construction paths the binary decode
// rides (Csr::from_symmetric_pairs, Netlist::from_sorted_parts,
// TimingConstraints::from_sorted_pairs).
//
// The load-bearing property throughout is VALUE IDENTITY: a problem
// decoded from a wire frame -- by the canonical fast path or the
// non-canonical replay fallback -- must equal the text-parsed instance
// bit for bit (same fingerprint, same CSR structures), because the cache
// key and the solver results both hang off those bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/problem.hpp"
#include "core/problem_io.hpp"
#include "service/protocol.hpp"
#include "service/wire.hpp"
#include "sparse/csr.hpp"
#include "test_support.hpp"
#include "util/wire.hpp"

namespace qbp {
namespace {

// ------------------------------------------------------- primitives ----

TEST(WirePrimitives, ScalarsRoundTripExactly) {
  std::string buffer;
  wire::Writer writer(buffer);
  writer.u8(0xAB);
  writer.u16(0xBEEF);
  writer.u32(0xDEADBEEF);
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{16384},
        std::numeric_limits<std::uint64_t>::max()}) {
    writer.varint(v);
  }
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    writer.svarint(v);
  }
  const double kDoubles[] = {0.0, -0.0, 1.5, -1e300,
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::quiet_NaN()};
  for (const double v : kDoubles) writer.f64(v);
  writer.string("hello \xC3\xA9 world");
  writer.string("");

  wire::Reader reader(buffer);
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  ASSERT_TRUE(reader.u8(u8));
  ASSERT_TRUE(reader.u16(u16));
  ASSERT_TRUE(reader.u32(u32));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  for (const std::uint64_t expected :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{16384},
        std::numeric_limits<std::uint64_t>::max()}) {
    std::uint64_t v = 99;
    ASSERT_TRUE(reader.varint(v));
    EXPECT_EQ(v, expected);
  }
  for (const std::int64_t expected :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    std::int64_t v = 99;
    ASSERT_TRUE(reader.svarint(v));
    EXPECT_EQ(v, expected);
  }
  for (const double expected : kDoubles) {
    double v = 99.0;
    ASSERT_TRUE(reader.f64(v));
    // Bit-exact, including -0.0 vs 0.0 and the NaN payload.
    std::uint64_t got_bits = 0;
    std::uint64_t want_bits = 0;
    std::memcpy(&got_bits, &v, sizeof v);
    std::memcpy(&want_bits, &expected, sizeof expected);
    EXPECT_EQ(got_bits, want_bits);
  }
  std::string_view text;
  ASSERT_TRUE(reader.string(text));
  EXPECT_EQ(text, "hello \xC3\xA9 world");
  ASSERT_TRUE(reader.string(text));
  EXPECT_EQ(text, "");
  EXPECT_TRUE(reader.done());
}

TEST(WirePrimitives, ArraysRoundTripAndHostileCountsAreRejected) {
  std::string buffer;
  wire::Writer writer(buffer);
  const std::vector<double> doubles = {1.0, -0.0, 3.5e-12};
  const std::vector<std::int32_t> ints = {-1, 0, 1 << 20};
  writer.f64_array(doubles);
  writer.i32_array(ints);

  wire::Reader reader(buffer);
  std::vector<double> doubles_out;
  std::vector<std::int32_t> ints_out;
  ASSERT_TRUE(reader.f64_array(doubles_out));
  ASSERT_TRUE(reader.i32_array(ints_out));
  EXPECT_EQ(doubles_out, doubles);
  EXPECT_EQ(ints_out, ints);
  EXPECT_TRUE(reader.done());

  // A count promising far more elements than the payload holds must fail
  // before any allocation-sized-by-count happens.
  std::string hostile;
  wire::Writer hostile_writer(hostile);
  hostile_writer.varint(std::uint64_t{1} << 40);
  hostile_writer.f64(1.0);
  wire::Reader hostile_reader(hostile);
  std::vector<double> sink;
  EXPECT_FALSE(hostile_reader.f64_array(sink));
}

TEST(WirePrimitives, TruncatedInputsFailCleanly) {
  std::string buffer;
  wire::Writer writer(buffer);
  writer.string("four");
  {
    wire::Reader reader(std::string_view(buffer).substr(0, buffer.size() - 2));
    std::string_view text;
    EXPECT_FALSE(reader.string(text));
  }
  {
    // A lone continuation byte is an unterminated varint.
    const std::string bytes("\x80", 1);
    wire::Reader reader(bytes);
    std::uint64_t v = 0;
    EXPECT_FALSE(reader.varint(v));
  }
  {
    const std::string bytes("\x01\x02\x03", 3);
    wire::Reader reader(bytes);
    double v = 0.0;
    EXPECT_FALSE(reader.f64(v));
  }
}

// ---------------------------------------------------------- framing ----

std::string make_frame(std::uint8_t type, std::string_view payload) {
  std::string out;
  wire::append_frame(out, type, payload);
  return out;
}

TEST(Framing, PeekFrameVerdicts) {
  wire::FrameView frame;
  std::string error;

  EXPECT_EQ(wire::peek_frame("", frame, error),
            wire::FrameStatus::kIncomplete);
  const std::string whole = make_frame(7, "payload");
  for (std::size_t cut = 1; cut < whole.size(); ++cut) {
    EXPECT_EQ(wire::peek_frame(std::string_view(whole).substr(0, cut), frame,
                               error),
              wire::FrameStatus::kIncomplete)
        << "cut at " << cut;
  }
  ASSERT_EQ(wire::peek_frame(whole, frame, error), wire::FrameStatus::kFrame);
  EXPECT_EQ(frame.type, 7);
  EXPECT_EQ(frame.payload, "payload");
  EXPECT_EQ(frame.frame_size, whole.size());

  // Trailing bytes beyond the first frame do not disturb the verdict.
  const std::string padded = whole + "garbage";
  ASSERT_EQ(wire::peek_frame(padded, frame, error), wire::FrameStatus::kFrame);
  EXPECT_EQ(frame.frame_size, whole.size());

  std::string bad_magic = whole;
  bad_magic[1] = 'X';
  EXPECT_EQ(wire::peek_frame(bad_magic, frame, error), wire::FrameStatus::kBad);
  EXPECT_FALSE(error.empty());

  std::string bad_version = whole;
  bad_version[4] = static_cast<char>(wire::kVersion + 1);
  EXPECT_EQ(wire::peek_frame(bad_version, frame, error),
            wire::FrameStatus::kBad);

  std::string bad_flags = whole;
  bad_flags[6] = 1;
  EXPECT_EQ(wire::peek_frame(bad_flags, frame, error), wire::FrameStatus::kBad);

  // A header advertising a payload beyond kMaxPayload is hostile, not
  // merely incomplete.
  std::string oversized = whole;
  const std::uint32_t huge = wire::kMaxPayload + 1;
  std::memcpy(oversized.data() + 8, &huge, sizeof huge);
  EXPECT_EQ(wire::peek_frame(oversized, frame, error),
            wire::FrameStatus::kBad);
}

TEST(Framing, FrameBufferStreamsAcrossArbitrarySplits) {
  const std::string first = make_frame(1, "alpha");
  const std::string second = make_frame(2, std::string(3000, 'b'));
  const std::string stream = first + second;

  // Feed the two-frame stream one byte at a time; exactly two frames must
  // come out, bit-identical, regardless of split points.
  wire::FrameBuffer buffer;
  std::vector<std::pair<std::uint8_t, std::string>> frames;
  for (const char byte : stream) {
    buffer.append(&byte, 1);
    for (;;) {
      wire::FrameView frame;
      std::string error;
      const auto status = buffer.next(frame, error);
      if (status != wire::FrameStatus::kFrame) {
        ASSERT_EQ(status, wire::FrameStatus::kIncomplete);
        break;
      }
      frames.emplace_back(frame.type, std::string(frame.payload));
      buffer.consume(frame.frame_size);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].first, 1);
  EXPECT_EQ(frames[0].second, "alpha");
  EXPECT_EQ(frames[1].first, 2);
  EXPECT_EQ(frames[1].second, std::string(3000, 'b'));
  EXPECT_EQ(buffer.pending(), 0u);
}

// ---------------------------------------------------- message codec ----

service::Request submit_request() {
  service::Request request;
  request.type = service::RequestType::kSubmit;
  request.id = "job-42";
  request.solver.method = "qbp";
  request.solver.starts = 3;
  request.solver.threads = 2;
  request.solver.iterations = 17;
  request.solver.seed = 12345;
  request.solver.validate = true;
  request.solver.presolve = false;
  request.priority = 5;
  request.deadline_ms = 1500.0;
  request.cache = false;
  request.warm_start = false;
  return request;
}

/// Offset of the retired `svarint inner_threads` slot in the payload of a
/// text submit: it follows the id, the problem kind and text, the method,
/// starts and threads.
std::size_t inner_threads_slot(const service::Request& request) {
  std::string prefix;
  wire::Writer writer(prefix);
  writer.string(request.id);
  writer.u8(0);  // problem kind
  writer.string(request.problem_text);
  writer.string(request.solver.method);
  writer.svarint(request.solver.starts);
  writer.svarint(request.solver.threads);
  return prefix.size();
}

/// `payload` with the one-byte value at `offset` replaced by `value`'s
/// svarint encoding.
std::string with_svarint_at(const std::string& payload, std::size_t offset,
                            std::int64_t value) {
  std::string encoded;
  wire::Writer(encoded).svarint(value);
  return payload.substr(0, offset) + encoded + payload.substr(offset + 1);
}

/// Split a full frame into (type, payload) or fail the test.
void split_frame(const std::string& frame, std::uint8_t& type,
                 std::string& payload) {
  wire::FrameView view;
  std::string error;
  ASSERT_EQ(wire::peek_frame(frame, view, error), wire::FrameStatus::kFrame)
      << error;
  ASSERT_EQ(view.frame_size, frame.size()) << "ragged frame";
  type = view.type;
  payload = std::string(view.payload);
}

TEST(MessageCodec, SubmitWithTextRoundTripsEveryField) {
  service::Request request = submit_request();
  request.problem_text = "problem p\ncomponents 1\nc0 1\n";

  std::string frame;
  service::encode_request_frame(request, frame);
  std::uint8_t type = 0;
  std::string payload;
  split_frame(frame, type, payload);
  ASSERT_EQ(static_cast<service::WireMsg>(type), service::WireMsg::kSubmit);

  service::Request out;
  std::string error;
  ASSERT_TRUE(service::decode_submit(payload, out, error)) << error;
  EXPECT_EQ(out.id, request.id);
  EXPECT_EQ(out.problem_text, request.problem_text);
  EXPECT_EQ(out.solver.method, request.solver.method);
  EXPECT_EQ(out.solver.starts, request.solver.starts);
  EXPECT_EQ(out.solver.threads, request.solver.threads);
  EXPECT_EQ(out.solver.iterations, request.solver.iterations);
  EXPECT_EQ(out.solver.seed, request.solver.seed);
  EXPECT_EQ(out.solver.validate, request.solver.validate);
  EXPECT_EQ(out.solver.presolve, request.solver.presolve);
  EXPECT_EQ(out.priority, request.priority);
  EXPECT_EQ(out.deadline_ms, request.deadline_ms);
  EXPECT_EQ(out.cache, request.cache);
  EXPECT_EQ(out.warm_start, request.warm_start);
  EXPECT_EQ(out.problem, nullptr);

  // The retired inner_threads slot: encoders write 1 (svarint byte 0x02),
  // and a frame whose slot holds 8 decodes to the same request, so both
  // re-encode to the same bytes.
  const std::size_t slot = inner_threads_slot(request);
  ASSERT_LT(slot, payload.size());
  EXPECT_EQ(payload[slot], '\x02');
  service::Request eight;
  ASSERT_TRUE(service::decode_submit(with_svarint_at(payload, slot, 8), eight,
                                     error))
      << error;
  std::string reencoded;
  service::encode_request_frame(eight, reencoded);
  EXPECT_EQ(reencoded, frame);
}

TEST(MessageCodec, ResultRoundTripsEveryField) {
  service::JobResult result;
  result.id = "job-42";
  result.status = "ok";
  result.solver = "qbp";
  result.feasible = true;
  result.objective = 123.4375;
  result.best_penalized = 123.4375;
  result.assignment = {0, 2, 1, 2};
  result.starts_run = 3;
  result.cache_hit = true;
  result.warm_start = true;
  result.eco_repairs = 2;
  result.eco_edits = 5;

  std::string frame;
  service::encode_result_frame(result, frame);
  std::uint8_t type = 0;
  std::string payload;
  split_frame(frame, type, payload);
  ASSERT_EQ(static_cast<service::WireMsg>(type), service::WireMsg::kResult);

  service::JobResult out;
  std::string error;
  ASSERT_TRUE(service::decode_result(payload, out, error)) << error;
  EXPECT_EQ(out.id, result.id);
  EXPECT_EQ(out.status, result.status);
  EXPECT_EQ(out.solver, result.solver);
  EXPECT_EQ(out.feasible, result.feasible);
  EXPECT_EQ(out.objective, result.objective);
  EXPECT_EQ(out.best_penalized, result.best_penalized);
  EXPECT_EQ(out.assignment, result.assignment);
  EXPECT_EQ(out.starts_run, result.starts_run);
  EXPECT_EQ(out.cache_hit, result.cache_hit);
  EXPECT_EQ(out.warm_start, result.warm_start);
  EXPECT_EQ(out.eco_repairs, result.eco_repairs);
  EXPECT_EQ(out.eco_edits, result.eco_edits);
}

TEST(MessageCodec, MalformedPayloadsFailWithMessagesNeverAbort) {
  service::Request request;
  service::JobResult result;
  std::string id;
  std::string text;
  std::string error;
  // Empty and garbage payloads across every decoder.
  for (const std::string& payload :
       {std::string(), std::string("\xFF\xFF\xFF\xFF", 4),
        std::string(64, '\x80')}) {
    EXPECT_FALSE(service::decode_submit(payload, request, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(service::decode_cancel(payload, request, error));
    EXPECT_FALSE(service::decode_result(payload, result, error));
  }
  // A note payload of two empty strings decodes; garbage does not.
  EXPECT_FALSE(service::decode_note(std::string("\xFF", 1), id, text, error));

  // Seeds outside [0, 2^53) and unknown presolve rules fail with the
  // NDJSON parser's message.  A binary frame carries the full uint64, so
  // qbpart_submit's --seed -1 arrives as 2^64 - 1.
  const std::string seed_range = "'seed' must be an integer in [0, 2^53)";
  for (const auto& [seed, rules, message] :
       {std::tuple<std::uint64_t, std::string, std::string>{
            std::numeric_limits<std::uint64_t>::max(), "r0", seed_range},
        {9007199254740993ULL, "r0", seed_range},
        {7, "bogus",
         "'presolve_rules' has unknown rule 'bogus' (want a "
         "comma-separated subset of r0,r1,r2,rn)"}}) {
    service::Request bad = submit_request();
    bad.problem_text = "problem p\n";
    bad.solver.seed = seed;
    bad.solver.presolve_rules = rules;
    std::string frame;
    service::encode_request_frame(bad, frame);
    std::uint8_t type = 0;
    std::string payload;
    split_frame(frame, type, payload);
    EXPECT_FALSE(service::decode_submit(payload, request, error)) << seed;
    EXPECT_EQ(error, message) << seed;
  }

  // The retired inner_threads slot is still read: a value outside int32 or
  // a payload cut off inside it fails the frame.
  service::Request submit = submit_request();
  submit.problem_text = "problem p\n";
  std::string frame;
  service::encode_request_frame(submit, frame);
  std::uint8_t type = 0;
  std::string payload;
  split_frame(frame, type, payload);
  const std::size_t slot = inner_threads_slot(submit);
  const std::string range =
      "field 'inner_threads' is truncated or out of int32 range";
  EXPECT_FALSE(service::decode_submit(
      with_svarint_at(payload, slot, std::int64_t{1} << 31), request, error));
  EXPECT_EQ(error, range);
  EXPECT_FALSE(service::decode_submit(payload.substr(0, slot), request, error));
  EXPECT_EQ(error, range);
}

// --------------------------------------------- problem value identity ----

PartitionProblem medium_problem(std::uint64_t seed = 17) {
  return test::make_tiny_problem({.num_components = 24,
                                  .num_partitions = 4,
                                  .wire_probability = 0.4,
                                  .constraint_probability = 0.3,
                                  .with_linear_term = true,
                                  .seed = seed});
}

/// Encode via the canonical encoder, decode, and return the instance.
std::shared_ptr<const PartitionProblem> wire_round_trip(
    const PartitionProblem& problem) {
  std::string payload;
  wire::Writer writer(payload);
  service::encode_problem(problem, writer);
  wire::Reader reader(payload);
  std::shared_ptr<const PartitionProblem> out;
  std::string error;
  EXPECT_TRUE(service::decode_problem(reader, out, error)) << error;
  EXPECT_TRUE(reader.done());
  return out;
}

void expect_value_identical(const PartitionProblem& a,
                            const PartitionProblem& b) {
  EXPECT_TRUE(problem_fingerprint(a) == problem_fingerprint(b));
  EXPECT_EQ(a.netlist().name(), b.netlist().name());
  EXPECT_EQ(a.netlist().components().size(), b.netlist().components().size());
  EXPECT_EQ(a.netlist().sizes(), b.netlist().sizes());
  EXPECT_EQ(a.netlist().bundles(), b.netlist().bundles());
  EXPECT_TRUE(a.netlist().connection_matrix() ==
              b.netlist().connection_matrix());
  EXPECT_TRUE(a.timing().matrix() == b.timing().matrix());
  EXPECT_EQ(a.topology().capacities(), b.topology().capacities());
  EXPECT_EQ(a.alpha(), b.alpha());
  EXPECT_EQ(a.beta(), b.beta());
}

TEST(ProblemCodec, WireDecodeMatchesTextParse) {
  const PartitionProblem original = medium_problem();

  std::ostringstream text;
  write_problem(text, original);
  PartitionProblem text_parsed;
  {
    std::istringstream in(text.str());
    ASSERT_TRUE(read_problem(in, text_parsed).ok);
  }

  const auto wire_parsed = wire_round_trip(text_parsed);
  ASSERT_NE(wire_parsed, nullptr);
  expect_value_identical(text_parsed, *wire_parsed);

  // Re-encoding the decoded instance is a byte-for-byte fixed point.
  std::string first;
  std::string second;
  {
    wire::Writer writer(first);
    service::encode_problem(text_parsed, writer);
  }
  {
    wire::Writer writer(second);
    service::encode_problem(*wire_parsed, writer);
  }
  EXPECT_EQ(first, second);
}

TEST(ProblemCodec, NonCanonicalOrderFallsBackToIdenticalValue) {
  const PartitionProblem original = medium_problem(23);
  const auto canonical = wire_round_trip(original);
  ASSERT_NE(canonical, nullptr);

  // Re-encode by hand with the bundle and constraint lists reversed and
  // the first bundle split into two duplicate entries: no longer
  // canonical, so decode_problem must take the replay path -- and still
  // produce the identical instance.
  const Netlist& netlist = original.netlist();
  std::vector<WireBundle> bundles(netlist.bundles().rbegin(),
                                  netlist.bundles().rend());
  ASSERT_GE(bundles.size(), 1u);
  if (bundles.front().multiplicity > 1) {
    WireBundle split = bundles.front();
    split.multiplicity = 1;
    bundles.front().multiplicity -= 1;
    bundles.push_back(split);
  }

  std::string payload;
  wire::Writer writer(payload);
  writer.string(netlist.name());
  writer.f64(original.alpha());
  writer.f64(original.beta());
  const std::int32_t m = original.topology().num_partitions();
  const std::int32_t n = netlist.num_components();
  writer.varint(static_cast<std::uint64_t>(m));
  writer.varint(static_cast<std::uint64_t>(n));
  for (const Component& component : netlist.components()) {
    writer.string(component.name);
  }
  writer.f64_array(netlist.sizes());
  std::vector<std::int32_t> scratch(bundles.size());
  writer.varint(bundles.size());
  for (std::size_t k = 0; k < bundles.size(); ++k) scratch[k] = bundles[k].a;
  writer.i32_array(scratch);
  for (std::size_t k = 0; k < bundles.size(); ++k) scratch[k] = bundles[k].b;
  writer.i32_array(scratch);
  for (std::size_t k = 0; k < bundles.size(); ++k) {
    scratch[k] = bundles[k].multiplicity;
  }
  writer.i32_array(scratch);
  writer.f64_array(original.topology().wire_cost().flat());
  writer.f64_array(original.topology().delay().flat());
  writer.f64_array(original.topology().capacities());
  // Constraints from the upper triangle, reversed.
  std::vector<std::int32_t> t_a;
  std::vector<std::int32_t> t_b;
  std::vector<double> t_bound;
  const Csr<double>& timing = original.timing().matrix();
  timing.for_each([&](std::int32_t j1, std::int32_t j2, double bound) {
    if (j1 < j2) {
      t_a.push_back(j1);
      t_b.push_back(j2);
      t_bound.push_back(bound);
    }
  });
  std::reverse(t_a.begin(), t_a.end());
  std::reverse(t_b.begin(), t_b.end());
  std::reverse(t_bound.begin(), t_bound.end());
  writer.varint(t_a.size());
  writer.i32_array(t_a);
  writer.i32_array(t_b);
  writer.f64_array(t_bound);
  const Matrix<double>& p = original.linear_cost_matrix();
  writer.u8(p.empty() ? 0 : 1);
  if (!p.empty()) writer.f64_array(p.flat());

  wire::Reader reader(payload);
  std::shared_ptr<const PartitionProblem> fallback;
  std::string error;
  ASSERT_TRUE(service::decode_problem(reader, fallback, error)) << error;
  expect_value_identical(*canonical, *fallback);
}

TEST(ProblemCodec, SubmitStructCarriesProblemZeroParse) {
  service::Request request = submit_request();
  request.problem =
      std::make_shared<PartitionProblem>(medium_problem(31));

  std::string frame;
  service::encode_request_frame(request, frame);
  std::uint8_t type = 0;
  std::string payload;
  split_frame(frame, type, payload);

  service::Request out;
  std::string error;
  ASSERT_TRUE(service::decode_submit(payload, out, error)) << error;
  ASSERT_NE(out.problem, nullptr);
  EXPECT_TRUE(out.problem_text.empty());
  expect_value_identical(*request.problem, *out.problem);
}

// ------------------------------------------------- bulk construction ----

TEST(BulkBuild, CsrFromSymmetricPairsMatchesFromTriplets) {
  const std::int32_t n = 9;
  const std::vector<std::int32_t> a = {0, 0, 1, 2, 2, 5};
  const std::vector<std::int32_t> b = {3, 7, 2, 4, 8, 6};
  const std::vector<double> values = {1.5, -2.0, 0.0, 4.25, 7.0, -0.5};

  std::vector<Triplet<double>> triplets;
  for (std::size_t k = 0; k < a.size(); ++k) {
    triplets.push_back({a[k], b[k], values[k]});
    triplets.push_back({b[k], a[k], values[k]});
  }
  const auto via_triplets = Csr<double>::from_triplets(n, n, triplets);
  const auto via_pairs = Csr<double>::from_symmetric_pairs(n, a, b, values);
  EXPECT_TRUE(via_pairs == via_triplets);

  // Empty pair list: a valid all-zero matrix.
  const auto empty = Csr<double>::from_symmetric_pairs(n, {}, {}, {});
  EXPECT_EQ(empty.rows(), n);
  EXPECT_EQ(empty.nonzeros(), 0u);
}

TEST(BulkBuild, NetlistFromSortedPartsMatchesIncremental) {
  Netlist incremental("bulk");
  incremental.add_component("a", 1.0);
  incremental.add_component("b", 2.5);
  incremental.add_component("c", 0.5);
  incremental.add_component("d", 4.0);
  incremental.add_wires(0, 1, 2);
  incremental.add_wires(1, 3, 1);
  incremental.add_wires(0, 2, 5);
  incremental.finalize();
  (void)incremental.connection_matrix();

  const Netlist bulk = Netlist::from_sorted_parts(
      "bulk",
      {{"a", 1.0}, {"b", 2.5}, {"c", 0.5}, {"d", 4.0}},
      {{0, 1, 2}, {0, 2, 5}, {1, 3, 1}});
  EXPECT_EQ(bulk.name(), incremental.name());
  EXPECT_EQ(bulk.sizes(), incremental.sizes());
  EXPECT_EQ(bulk.bundles(), incremental.bundles());
  EXPECT_TRUE(bulk.connection_matrix() == incremental.connection_matrix());
  EXPECT_EQ(bulk.total_wires(), incremental.total_wires());
  EXPECT_EQ(bulk.num_connected_pairs(), incremental.num_connected_pairs());
  EXPECT_TRUE(bulk.validate().empty());
}

TEST(BulkBuild, TimingFromSortedPairsMatchesAddPath) {
  TimingConstraints incremental(6);
  incremental.add(0, 2, 3.0);
  incremental.add(1, 4, 1.5);
  incremental.add(2, 5, 2.0);
  (void)incremental.matrix();

  const std::vector<std::int32_t> j1 = {0, 1, 2};
  const std::vector<std::int32_t> j2 = {2, 4, 5};
  const std::vector<double> bounds = {3.0, 1.5, 2.0};
  const TimingConstraints bulk =
      TimingConstraints::from_sorted_pairs(6, j1, j2, bounds);
  EXPECT_TRUE(bulk.matrix() == incremental.matrix());
  EXPECT_EQ(bulk.count(), incremental.count());
  EXPECT_EQ(bulk.max_delay(1, 4), 1.5);
  EXPECT_EQ(bulk.max_delay(3, 4), TimingConstraints::kUnconstrained);
}

}  // namespace
}  // namespace qbp
