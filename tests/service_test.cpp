// End-to-end tests for the qbpartd service layer: protocol round-trips,
// queue ordering, the server lifecycle (submit -> result, deadlines,
// cancellation, backpressure, drain), determinism across worker counts,
// and the metrics registry.
//
// The server is exercised in-process: handle_line() with a collecting sink
// is exactly the pipe-mode serve loop minus the fd plumbing, and keeps the
// tests free of process management.  ServerOptions::autostart = false lets
// a test stage every submission before any worker can pop, making
// completion order assertions deterministic.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/problem_io.hpp"
#include "core/validate.hpp"
#include "service/client.hpp"
#include "service/metrics.hpp"
#include "service/protocol.hpp"
#include "service/queue.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "test_support.hpp"
#include "util/prof.hpp"
#include "util/wire.hpp"

namespace qbp::service {
namespace {

std::string tiny_problem_text(std::uint64_t seed = 11) {
  const auto problem = test::make_tiny_problem(
      {.num_components = 12, .num_partitions = 3, .seed = seed});
  std::ostringstream out;
  write_problem(out, problem);
  return out.str();
}

/// Thread-safe collecting sink + helpers to await and decode responses.
class ResponseLog {
 public:
  Server::Sink sink() {
    return [this](const std::string& line) {
      const std::lock_guard lock(mutex_);
      lines_.push_back(line);
    };
  }

  [[nodiscard]] std::vector<std::string> lines() const {
    const std::lock_guard lock(mutex_);
    return lines_;
  }

  /// Responses with "type":"result", decoded, in arrival order.
  [[nodiscard]] std::vector<JobResult> results() const {
    std::vector<JobResult> out;
    for (const auto& line : lines()) {
      json::Value value;
      if (!json::parse(line, value).ok) continue;
      if (value.get_string("type", "") != "result") continue;
      JobResult result;
      EXPECT_TRUE(result_from_json(value, result).ok) << line;
      out.push_back(std::move(result));
    }
    return out;
  }

  /// Block until at least `n` replies arrived; false after 60 s.
  [[nodiscard]] bool wait_for(std::size_t n) const {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (lines().size() < n) {
      if (std::chrono::steady_clock::now() > give_up) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  [[nodiscard]] std::size_t count(std::string_view needle) const {
    std::size_t n = 0;
    for (const auto& line : lines()) {
      if (line.find(needle) != std::string::npos) ++n;
    }
    return n;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

std::string submit_line(const std::string& id, const std::string& problem,
                        std::uint64_t seed = 1, std::int32_t priority = 0,
                        double deadline_ms = 0.0, std::int32_t starts = 2,
                        std::int32_t threads = 1,
                        const std::string& method = "qbp") {
  Request request;
  request.type = RequestType::kSubmit;
  request.id = id;
  request.problem_text = problem;
  request.solver.method = method;
  request.solver.starts = starts;
  request.solver.threads = threads;
  request.solver.iterations = 40;
  request.solver.seed = seed;
  request.priority = priority;
  request.deadline_ms = deadline_ms;
  return format_request(request);
}

// ----------------------------------------------------------- protocol ----

TEST(Protocol, SubmitRoundTripPreservesEveryField) {
  Request request;
  request.type = RequestType::kSubmit;
  request.id = "job-42";
  request.problem_text = "problem \"x\"\nend\n";
  request.solver.method = "sa";
  request.solver.starts = 7;
  request.solver.threads = 3;
  request.solver.iterations = 250;
  request.solver.seed = 987654321;
  request.deadline_ms = 1500.5;
  request.priority = -2;
  request.solver.presolve_rules = "r0,r2";
  request.solver.ml_levels = 6;
  request.solver.ml_min_shrink = 0.85;
  request.solver.ml_refine_passes = 2;
  request.cache = false;
  request.warm_start = false;

  Request decoded;
  const auto parsed = parse_request(format_request(request), decoded);
  ASSERT_TRUE(parsed.ok) << parsed.message;
  EXPECT_EQ(decoded.type, RequestType::kSubmit);
  EXPECT_EQ(decoded.id, request.id);
  EXPECT_EQ(decoded.problem_text, request.problem_text);
  EXPECT_EQ(decoded.solver.method, "sa");
  EXPECT_EQ(decoded.solver.starts, 7);
  EXPECT_EQ(decoded.solver.threads, 3);
  EXPECT_EQ(decoded.solver.iterations, 250);
  EXPECT_EQ(decoded.solver.seed, 987654321u);
  EXPECT_DOUBLE_EQ(decoded.deadline_ms, 1500.5);
  EXPECT_EQ(decoded.priority, -2);
  EXPECT_EQ(decoded.solver.presolve_rules, "r0,r2");
  EXPECT_EQ(decoded.solver.ml_levels, 6);
  EXPECT_DOUBLE_EQ(decoded.solver.ml_min_shrink, 0.85);
  EXPECT_EQ(decoded.solver.ml_refine_passes, 2);
  EXPECT_FALSE(decoded.cache);
  EXPECT_FALSE(decoded.warm_start);
}

TEST(Protocol, MultilevelSpecFieldsValidateAndDefault) {
  Request out;
  // Defaults survive an absent solver block.
  ASSERT_TRUE(parse_request(
                  "{\"type\":\"submit\",\"problem\":\"p\"}", out)
                  .ok);
  EXPECT_EQ(out.solver.ml_levels, 0);
  EXPECT_DOUBLE_EQ(out.solver.ml_min_shrink, 0.0);
  EXPECT_EQ(out.solver.ml_refine_passes, -1);
  // Out-of-range values are rejected with a message.
  EXPECT_FALSE(parse_request("{\"type\":\"submit\",\"problem\":\"p\","
                             "\"solver\":{\"ml_levels\":-1}}",
                             out)
                   .ok);
  EXPECT_FALSE(parse_request("{\"type\":\"submit\",\"problem\":\"p\","
                             "\"solver\":{\"ml_min_shrink\":1.0}}",
                             out)
                   .ok);
  EXPECT_FALSE(parse_request("{\"type\":\"submit\",\"problem\":\"p\","
                             "\"solver\":{\"ml_refine_passes\":-2}}",
                             out)
                   .ok);
}

TEST(Protocol, RetiredInnerThreadsIsAcceptedAndIgnored) {
  // Older clients still send "inner_threads": the server ignores it, so a
  // submit carrying it is answered exactly like the same submit without.
  const std::string plain = submit_line("plain", tiny_problem_text(29), 7);
  json::Value value;
  ASSERT_TRUE(json::parse(plain, value).ok);
  json::Value solver = *value.find("solver");
  solver.set("inner_threads", 8);
  value.set("solver", std::move(solver));
  value.set("id", "retired");
  const std::string retired = value.dump();
  ASSERT_NE(retired.find("\"inner_threads\":8"), std::string::npos);

  ResponseLog log;
  Server server(ServerOptions{});
  server.handle_line(plain, log.sink());
  server.handle_line(retired, log.sink());
  server.drain();
  auto results = log.results();
  ASSERT_EQ(results.size(), 2u);
  std::sort(results.begin(), results.end(),
            [](const JobResult& a, const JobResult& b) { return a.id < b.id; });
  EXPECT_EQ(results[0].id, "plain");
  EXPECT_EQ(results[1].id, "retired");
  EXPECT_EQ(results[0].status, "ok");
  EXPECT_EQ(results[1].status, results[0].status);
  EXPECT_EQ(results[1].objective, results[0].objective);
  EXPECT_EQ(results[1].assignment, results[0].assignment);
}

TEST(Protocol, ResultRoundTripPreservesAssignment) {
  JobResult result;
  result.id = "r1";
  result.status = "ok";
  result.solver = "qbp";
  result.feasible = true;
  result.objective = 123.5;
  result.best_penalized = 123.5;
  result.assignment = {0, 2, 1, 1, 0};
  result.queue_wait_s = 0.25;
  result.solve_s = 1.5;
  result.starts_run = 4;

  JobResult decoded;
  const auto parsed = result_from_json(result_to_json(result), decoded);
  ASSERT_TRUE(parsed.ok) << parsed.message;
  EXPECT_EQ(decoded.id, "r1");
  EXPECT_EQ(decoded.status, "ok");
  EXPECT_TRUE(decoded.feasible);
  EXPECT_DOUBLE_EQ(decoded.objective, 123.5);
  EXPECT_EQ(decoded.assignment, result.assignment);
  EXPECT_EQ(decoded.starts_run, 4);
}

TEST(Protocol, ResultRoundTripPreservesCacheAndEcoFields) {
  JobResult result;
  result.id = "r2";
  result.status = "ok";
  result.cache_hit = true;

  JobResult decoded;
  ASSERT_TRUE(result_from_json(result_to_json(result), decoded).ok);
  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_FALSE(decoded.warm_start);

  result.cache_hit = false;
  result.warm_start = true;
  result.eco_repairs = 3;
  result.eco_edits = 5;
  ASSERT_TRUE(result_from_json(result_to_json(result), decoded).ok);
  EXPECT_FALSE(decoded.cache_hit);
  EXPECT_TRUE(decoded.warm_start);
  EXPECT_EQ(decoded.eco_repairs, 3);
  EXPECT_EQ(decoded.eco_edits, 5);
}

TEST(Protocol, MalformedRequestsFailWithMessages) {
  Request out;
  EXPECT_FALSE(parse_request("", out).ok);
  EXPECT_FALSE(parse_request("not json", out).ok);
  EXPECT_FALSE(parse_request("{\"type\":\"frobnicate\"}", out).ok);
  EXPECT_FALSE(parse_request("[1,2,3]", out).ok);
  // Submit needs exactly one problem source.
  EXPECT_FALSE(parse_request("{\"type\":\"submit\",\"id\":\"x\"}", out).ok);
  EXPECT_FALSE(parse_request("{\"type\":\"submit\",\"problem\":\"p\","
                             "\"problem_file\":\"f\"}",
                             out)
                   .ok);
  // Hostile solver specs are rejected at the protocol boundary.
  EXPECT_FALSE(parse_request("{\"type\":\"submit\",\"problem\":\"p\","
                             "\"solver\":{\"starts\":0}}",
                             out)
                   .ok);
  EXPECT_FALSE(parse_request("{\"type\":\"submit\",\"problem\":\"p\","
                             "\"deadline_ms\":-5}",
                             out)
                   .ok);
  // Seeds outside [0, 2^53), unknown presolve rules and starts or threads
  // above their caps: the same verdict and message as a binary frame
  // (MessageCodec covers that half).  A negative seed used to fall back to
  // the default silently, and 2^53 + 1 arrives rounded to 2^53.
  const std::string seed_range = "'seed' must be an integer in [0, 2^53)";
  for (const auto& [solver, message] :
       {std::pair<std::string, std::string>{"{\"seed\":-1}", seed_range},
        {"{\"seed\":9007199254740993}", seed_range},
        {"{\"seed\":1e30}", seed_range},
        {"{\"presolve_rules\":\"bogus\"}",
         "'presolve_rules' has unknown rule 'bogus' (want a "
         "comma-separated subset of r0,r1,r2,rn)"},
        {"{\"starts\":16385}", "'starts' must be <= 16384"},
        {"{\"threads\":257}", "'threads' must be <= 256"}}) {
    const ParseResult parsed = parse_request(
        "{\"type\":\"submit\",\"problem\":\"p\",\"solver\":" + solver + "}",
        out);
    EXPECT_FALSE(parsed.ok) << solver;
    EXPECT_EQ(parsed.message, message) << solver;
  }
}

// -------------------------------------------------------------- queue ----

TEST(Protocol, LineBufferSplitsLinesAtEveryChunkBoundary) {
  // One line longer than the serve loops' 4 KiB read, an empty line and an
  // unterminated last line, which stays in rest().
  const std::vector<std::string> lines = {"{\"type\":\"stats\"}", "",
                                          std::string(10000, 'x'), "a b c"};
  std::string stream;
  for (const std::string& line : lines) stream += line + '\n';
  stream += "tail";

  const auto split = [&](const std::vector<std::size_t>& cuts) {
    LineBuffer buffer;
    std::vector<std::string> out;
    std::size_t from = 0;
    for (const std::size_t cut : cuts) {
      buffer.append(std::string_view(stream).substr(from, cut - from));
      from = cut;
      std::string_view line;
      while (buffer.next(line)) out.emplace_back(line);
    }
    EXPECT_EQ(out, lines);
    EXPECT_EQ(buffer.rest(), "tail");
  };
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    split({cut, stream.size()});
  }
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}}) {
    std::vector<std::size_t> cuts;
    for (std::size_t end = chunk; end < stream.size(); end += chunk) {
      cuts.push_back(end);
    }
    cuts.push_back(stream.size());
    split(cuts);
  }
}

TEST(JobQueue, PriorityThenFifoOrder) {
  JobQueue queue(8);
  const auto job = [](std::int64_t seq, std::int32_t priority) {
    Job j;
    j.id = "j" + std::to_string(seq);
    j.seq = seq;
    j.priority = priority;
    return j;
  };
  ASSERT_EQ(queue.push(job(0, 0)), JobQueue::PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(job(1, 5)), JobQueue::PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(job(2, 0)), JobQueue::PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(job(3, 5)), JobQueue::PushOutcome::kAccepted);

  Job out;
  std::vector<std::string> order;
  while (queue.size() > 0 && queue.pop(out)) order.push_back(out.id);
  EXPECT_EQ(order, (std::vector<std::string>{"j1", "j3", "j0", "j2"}));
}

TEST(JobQueue, FullAndClosedOutcomes) {
  JobQueue queue(2);
  EXPECT_EQ(queue.push(Job{}), JobQueue::PushOutcome::kAccepted);
  EXPECT_EQ(queue.push(Job{}), JobQueue::PushOutcome::kAccepted);
  EXPECT_EQ(queue.push(Job{}), JobQueue::PushOutcome::kFull);
  queue.close();
  EXPECT_EQ(queue.push(Job{}), JobQueue::PushOutcome::kClosed);
  Job out;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_TRUE(queue.pop(out));
  EXPECT_FALSE(queue.pop(out));  // closed and drained
}

TEST(JobQueue, CancelRemovesQueuedJob) {
  JobQueue queue(4);
  Job a;
  a.id = "a";
  a.seq = 0;
  Job b;
  b.id = "b";
  b.seq = 1;
  ASSERT_EQ(queue.push(std::move(a)), JobQueue::PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(std::move(b)), JobQueue::PushOutcome::kAccepted);
  Job removed;
  EXPECT_TRUE(queue.cancel("a", removed));
  EXPECT_EQ(removed.id, "a");
  EXPECT_FALSE(queue.cancel("a", removed));
  EXPECT_EQ(queue.size(), 1u);
}

// ------------------------------------------------------------- server ----

/// Await `n` results without draining (drain() closes the queue for good,
/// so tests that submit sequenced traffic poll instead).
void wait_for_results(const ResponseLog& log, std::size_t n) {
  for (int spins = 0; spins < 2000 && log.results().size() < n; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(log.results().size(), n);
}

TEST(Server, EndToEndJobsProduceDeterministicResults) {
  const std::string problem = tiny_problem_text();

  // Same jobs under different worker counts: the chosen assignments must be
  // bit-identical (the engine determinism contract, surfaced end to end).
  const auto run_batch = [&](std::int32_t workers) {
    ResponseLog log;
    ServerOptions options;
    options.workers = workers;
    Server server(options);
    for (int k = 0; k < 4; ++k) {
      server.handle_line(
          submit_line("job" + std::to_string(k), problem,
                      /*seed=*/100 + static_cast<std::uint64_t>(k)),
          log.sink());
    }
    server.drain();
    auto results = log.results();
    // Arrival order of results varies with scheduling; key them by id.
    std::sort(results.begin(), results.end(),
              [](const JobResult& a, const JobResult& b) { return a.id < b.id; });
    return results;
  };

  const auto serial = run_batch(1);
  const auto parallel = run_batch(4);
  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(parallel.size(), 4u);
  for (std::size_t k = 0; k < serial.size(); ++k) {
    EXPECT_EQ(serial[k].id, parallel[k].id);
    EXPECT_EQ(serial[k].status, "ok") << serial[k].id;
    EXPECT_EQ(serial[k].status, parallel[k].status);
    EXPECT_DOUBLE_EQ(serial[k].objective, parallel[k].objective);
    EXPECT_EQ(serial[k].assignment, parallel[k].assignment) << serial[k].id;
  }
}

TEST(Server, ResubmittedJobIsServedFromCacheBitIdentical) {
  // The same problem + spec submitted twice: the second answer must be
  // flagged cache_hit and be bit-identical to the first -- across worker
  // counts (the cache key excludes threading entirely).
  const std::string problem = tiny_problem_text();
  for (const std::int32_t workers : {1, 4}) {
    ResponseLog log;
    ServerOptions options;
    options.workers = workers;
    Server server(options);
    server.handle_line(submit_line("first", problem, /*seed=*/3), log.sink());
    wait_for_results(log, 1);  // the first solve lands before the resubmit
    server.handle_line(submit_line("second", problem, /*seed=*/3), log.sink());
    server.drain();
    server.handle_line("{\"type\":\"stats\"}", log.sink());

    auto results = log.results();
    ASSERT_EQ(results.size(), 2u) << "workers " << workers;
    std::sort(results.begin(), results.end(),
              [](const JobResult& a, const JobResult& b) { return a.id < b.id; });
    EXPECT_EQ(results[0].id, "first");
    EXPECT_FALSE(results[0].cache_hit);
    EXPECT_EQ(results[1].id, "second");
    EXPECT_TRUE(results[1].cache_hit) << "workers " << workers;
    EXPECT_EQ(results[1].status, results[0].status);
    EXPECT_EQ(results[1].objective, results[0].objective);
    EXPECT_EQ(results[1].assignment, results[0].assignment)
        << "workers " << workers;

    json::Value stats;
    ASSERT_TRUE(json::parse(log.lines().back(), stats).ok);
    const json::Value* gauges = stats.find("gauges");
    ASSERT_NE(gauges, nullptr);
    EXPECT_EQ(gauges->get_number("cache.hits", -1.0), 1.0);
    EXPECT_GE(gauges->get_number("cache.entries", -1.0), 1.0);
    EXPECT_GT(gauges->get_number("cache.bytes", -1.0), 0.0);
    const json::Value* counters = stats.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->get_number("eco.exact_hits", -1.0), 1.0);
  }
}

TEST(Server, CacheOffServesEveryJobColdAndBitIdentical) {
  // --cache off (capacity 0): no hits, no cache state -- and the answers
  // match the cache-on first solve bit for bit (the cache never changes
  // what a cold solve returns).
  const std::string problem = tiny_problem_text();

  ResponseLog on_log;
  {
    Server server(ServerOptions{});
    server.handle_line(submit_line("ref", problem, /*seed=*/3), on_log.sink());
    server.drain();
  }
  const auto reference = on_log.results();
  ASSERT_EQ(reference.size(), 1u);

  ResponseLog log;
  ServerOptions options;
  options.cache_capacity = 0;
  Server server(options);
  server.handle_line(submit_line("a", problem, /*seed=*/3), log.sink());
  wait_for_results(log, 1);
  server.handle_line(submit_line("b", problem, /*seed=*/3), log.sink());
  server.drain();
  server.handle_line("{\"type\":\"stats\"}", log.sink());

  auto results = log.results();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    EXPECT_FALSE(result.cache_hit) << result.id;
    EXPECT_FALSE(result.warm_start) << result.id;
    EXPECT_EQ(result.objective, reference[0].objective) << result.id;
    EXPECT_EQ(result.assignment, reference[0].assignment) << result.id;
  }
  json::Value stats;
  ASSERT_TRUE(json::parse(log.lines().back(), stats).ok);
  const json::Value* gauges = stats.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->get_number("cache.hits", -1.0), 0.0);
  EXPECT_EQ(gauges->get_number("cache.entries", -1.0), 0.0);
}

TEST(Server, PerRequestCacheOptOutSkipsLookupAndInsert) {
  const std::string problem = tiny_problem_text();
  ResponseLog log;
  Server server(ServerOptions{});

  Request request;
  request.type = RequestType::kSubmit;
  request.id = "optout-1";
  request.problem_text = problem;
  request.solver.starts = 2;
  request.solver.iterations = 40;
  request.solver.seed = 3;
  request.cache = false;
  server.handle_line(format_request(request), log.sink());
  wait_for_results(log, 1);
  request.id = "optout-2";
  server.handle_line(format_request(request), log.sink());
  server.drain();

  const auto results = log.results();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[1].cache_hit);
  EXPECT_EQ(results[1].assignment, results[0].assignment);
  EXPECT_EQ(server.cache().stats().inserts, 0);
}

TEST(Server, PerJobValidateFlagShadowAuditsEveryStart) {
  // A submit carrying "validate": true must shadow-audit every start and
  // report the count; one without the flag must not pay for the audit.
  const std::string problem = tiny_problem_text();
  ResponseLog log;
  Server server(ServerOptions{});

  Request audited;
  audited.type = RequestType::kSubmit;
  audited.id = "audited";
  audited.problem_text = problem;
  audited.solver.starts = 3;
  audited.solver.iterations = 40;
  audited.solver.validate = true;
  server.handle_line(format_request(audited), log.sink());
  server.handle_line(submit_line("plain", problem), log.sink());
  server.drain();

  auto results = log.results();
  ASSERT_EQ(results.size(), 2u);
  std::sort(results.begin(), results.end(),
            [](const JobResult& a, const JobResult& b) { return a.id < b.id; });
  EXPECT_EQ(results[0].id, "audited");
  EXPECT_EQ(results[0].status, "ok");
  EXPECT_EQ(results[0].starts_validated, 3);
  EXPECT_EQ(results[1].id, "plain");
  EXPECT_EQ(results[1].status, "ok");
  // Without the per-job flag the process-wide default applies: 0 audits in
  // a stock build, every start audited under -DQBPART_VALIDATE=ON.
  EXPECT_EQ(results[1].starts_validated, validation_enabled() ? 2 : 0);
}

TEST(Server, FifoWithinPriorityCompletionOrder) {
  const std::string problem = tiny_problem_text();
  ResponseLog log;
  ServerOptions options;
  options.workers = 1;     // one worker => completion order == pop order
  options.autostart = false;  // stage everything first
  Server server(options);
  server.handle_line(submit_line("low-0", problem, 1, /*priority=*/0),
                     log.sink());
  server.handle_line(submit_line("high-0", problem, 2, /*priority=*/9),
                     log.sink());
  server.handle_line(submit_line("low-1", problem, 3, /*priority=*/0),
                     log.sink());
  server.handle_line(submit_line("high-1", problem, 4, /*priority=*/9),
                     log.sink());
  server.start();
  server.drain();

  const auto results = log.results();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].id, "high-0");
  EXPECT_EQ(results[1].id, "high-1");
  EXPECT_EQ(results[2].id, "low-0");
  EXPECT_EQ(results[3].id, "low-1");
}

TEST(Server, ExpiredDeadlineReportsDeadlineExceeded) {
  const std::string problem = tiny_problem_text();
  ResponseLog log;
  ServerOptions options;
  options.autostart = false;
  Server server(options);
  // 1 microsecond: expired long before the (not yet started) workers pop it.
  server.handle_line(submit_line("doomed", problem, 1, 0, /*deadline_ms=*/0.001),
                     log.sink());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.start();
  server.drain();

  const auto results = log.results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, "doomed");
  EXPECT_EQ(results[0].status, "deadline_exceeded");
  EXPECT_TRUE(results[0].assignment.empty());
  EXPECT_EQ(server.metrics().counter("jobs_deadline_exceeded").value(), 1);
}

TEST(Server, MidRunDeadlineCancelsCooperatively) {
  // A slow job: many SA starts on one thread, far beyond a 30 ms budget.
  const std::string problem = tiny_problem_text();
  ResponseLog log;
  Server server(ServerOptions{});
  server.handle_line(submit_line("slow", problem, 1, 0, /*deadline_ms=*/30.0,
                                 /*starts=*/512, /*threads=*/1, "sa"),
                     log.sink());
  server.drain();

  const auto results = log.results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, "deadline_exceeded");
}

TEST(Server, FullQueueRejectsWithBackpressure) {
  const std::string problem = tiny_problem_text();
  ResponseLog log;
  ServerOptions options;
  options.queue_capacity = 2;
  options.autostart = false;  // nothing pops, so the queue stays full
  Server server(options);
  server.handle_line(submit_line("a", problem), log.sink());
  server.handle_line(submit_line("b", problem), log.sink());
  server.handle_line(submit_line("c", problem), log.sink());
  EXPECT_EQ(log.count("\"type\":\"reject\""), 1u);
  EXPECT_EQ(log.count("queue full (capacity 2)"), 1u);
  EXPECT_EQ(server.metrics().counter("jobs_rejected").value(), 1);
  server.drain();  // a and b still complete
  EXPECT_EQ(log.results().size(), 2u);
}

TEST(Server, CancelQueuedJobAnswersCancelled) {
  const std::string problem = tiny_problem_text();
  ResponseLog log;
  ServerOptions options;
  options.autostart = false;
  Server server(options);
  server.handle_line(submit_line("keep", problem), log.sink());
  server.handle_line(submit_line("kill", problem), log.sink());
  server.handle_line("{\"type\":\"cancel\",\"id\":\"kill\"}", log.sink());
  server.handle_line("{\"type\":\"cancel\",\"id\":\"nonexistent\"}",
                     log.sink());
  server.start();
  server.drain();

  const auto results = log.results();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(log.count("\"status\":\"cancelled\""), 1u);
  EXPECT_EQ(log.count("unknown job id"), 1u);
  EXPECT_EQ(server.metrics().counter("jobs_cancelled").value(), 1);
}

TEST(Server, DrainingServerRejectsNewSubmits) {
  const std::string problem = tiny_problem_text();
  ResponseLog log;
  Server server(ServerOptions{});
  server.begin_drain();
  server.handle_line(submit_line("late", problem), log.sink());
  EXPECT_EQ(log.count("server draining"), 1u);
  server.drain();
  EXPECT_EQ(log.results().size(), 0u);
}

TEST(Server, MalformedLinesAndBadProblemsAreContained) {
  ResponseLog log;
  Server server(ServerOptions{});
  server.handle_line("this is not json", log.sink());
  server.handle_line("{\"type\":\"submit\"}", log.sink());
  // Valid request, garbage problem text: must come back status "error",
  // not crash the worker.
  server.handle_line(submit_line("bad", "wibble wobble\n"), log.sink());
  server.drain();
  EXPECT_EQ(log.count("\"type\":\"error\""), 2u);
  EXPECT_EQ(log.count("\"status\":\"error\""), 1u);
  EXPECT_EQ(server.metrics().counter("requests_malformed").value(), 2);
  EXPECT_EQ(server.metrics().counter("jobs_error").value(), 1);
}

TEST(Server, DuplicateActiveIdRejected) {
  const std::string problem = tiny_problem_text();
  ResponseLog log;
  ServerOptions options;
  options.autostart = false;
  Server server(options);
  server.handle_line(submit_line("dup", problem), log.sink());
  server.handle_line(submit_line("dup", problem), log.sink());
  EXPECT_EQ(log.count("duplicate id"), 1u);
  server.drain();
  EXPECT_EQ(log.results().size(), 1u);
}

TEST(Server, StatsRequestReportsCountersAndHistograms) {
  const std::string problem = tiny_problem_text();
  ResponseLog log;
  Server server(ServerOptions{});
  server.handle_line(submit_line("s1", problem), log.sink());
  server.drain();
  server.handle_line("{\"type\":\"stats\"}", log.sink());

  json::Value stats;
  ASSERT_TRUE(json::parse(log.lines().back(), stats).ok);
  EXPECT_EQ(stats.get_string("type", ""), "stats");
  EXPECT_GE(stats.get_number("uptime_s", -1.0), 0.0);
  const json::Value* counters = stats.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->get_number("jobs_completed", 0), 1.0);
  const json::Value* histograms = stats.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* solve = histograms->find("solve_seconds");
  ASSERT_NE(solve, nullptr);
  EXPECT_EQ(solve->get_number("count", 0), 1.0);
}

TEST(Server, PhaseProfilerSurfacesHistogramsInStats) {
  // With the phase profiler on (qbpartd --profile), each job's per-phase
  // time deltas land in phase_seconds.* histograms in the stats snapshot.
  prof::set_enabled(true);
  prof::reset();
  const std::string problem = tiny_problem_text();
  ResponseLog log;
  {
    Server server(ServerOptions{});
    server.handle_line(submit_line("p1", problem), log.sink());
    server.handle_line(submit_line("p2", problem, /*seed=*/2), log.sink());
    server.drain();
    server.handle_line("{\"type\":\"stats\"}", log.sink());
  }
  prof::set_enabled(false);
  prof::reset();

  json::Value stats;
  ASSERT_TRUE(json::parse(log.lines().back(), stats).ok);
  const json::Value* histograms = stats.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* starts = histograms->find("phase_seconds.portfolio.start");
  ASSERT_NE(starts, nullptr);
  EXPECT_EQ(starts->get_number("count", 0), 2.0);  // one observation per job
  const json::Value* gap = histograms->find("phase_seconds.burkard.step6_gap");
  ASSERT_NE(gap, nullptr);
  EXPECT_EQ(gap->get_number("count", 0), 2.0);
}

TEST(Server, ShutdownRequestFlagsTheServeLoop) {
  ResponseLog log;
  Server server(ServerOptions{});
  EXPECT_FALSE(server.shutdown_requested());
  server.handle_line("{\"type\":\"shutdown\"}", log.sink());
  EXPECT_TRUE(server.shutdown_requested());
  EXPECT_EQ(log.count("\"type\":\"shutdown\""), 1u);
  server.drain();
}

// ------------------------------------------------- binary wire framing ----

Request make_wire_request(const std::string& id, const std::string& problem,
                          std::uint64_t seed = 1) {
  Request request;
  request.type = RequestType::kSubmit;
  request.id = id;
  request.problem_text = problem;
  request.solver.starts = 2;
  request.solver.iterations = 40;
  request.solver.seed = seed;
  return request;
}

std::string wire_frame(const Request& request) {
  std::string frame;
  encode_request_frame(request, frame);
  return frame;
}

/// Decode the binary kResult frames collected by a sink, arrival order.
std::vector<JobResult> binary_results(const std::vector<std::string>& frames) {
  std::vector<JobResult> out;
  for (const auto& bytes : frames) {
    wire::FrameView frame;
    std::string error;
    if (wire::peek_frame(bytes, frame, error) != wire::FrameStatus::kFrame) {
      continue;
    }
    if (static_cast<WireMsg>(frame.type) != WireMsg::kResult) continue;
    JobResult result;
    EXPECT_TRUE(decode_result(frame.payload, result, error)) << error;
    out.push_back(std::move(result));
  }
  return out;
}

void expect_same_result(const JobResult& a, const JobResult& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.solver, b.solver);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.best_penalized, b.best_penalized);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.starts_run, b.starts_run);
  EXPECT_EQ(a.cache_hit, b.cache_hit);
  EXPECT_EQ(a.warm_start, b.warm_start);
}

void sort_by_id(std::vector<JobResult>& results) {
  std::sort(results.begin(), results.end(),
            [](const JobResult& a, const JobResult& b) { return a.id < b.id; });
}

TEST(Server, BinaryFramesBitIdenticalToNdjsonAcrossWorkers) {
  const std::string problem = tiny_problem_text();
  constexpr int kJobs = 6;

  // Submit k carries seed 7 + k, so no two submits share a cache key: which
  // of several identical submits hit the cache would depend on how the
  // workers are scheduled, not on the framing under test.
  for (const std::int32_t workers : {1, 4}) {
    ResponseLog ndjson_log;
    {
      ServerOptions options;
      options.workers = workers;
      Server server(options);
      for (int k = 0; k < kJobs; ++k) {
        const auto request =
            make_wire_request("j" + std::to_string(k), problem, 7 + k);
        server.handle_line(format_request(request), ndjson_log.sink());
      }
      server.drain();
    }
    ResponseLog binary_log;
    {
      ServerOptions options;
      options.workers = workers;
      Server server(options);
      for (int k = 0; k < kJobs; ++k) {
        const auto request =
            make_wire_request("j" + std::to_string(k), problem, 7 + k);
        const std::string frame = wire_frame(request);
        wire::FrameView view;
        std::string error;
        ASSERT_EQ(wire::peek_frame(frame, view, error),
                  wire::FrameStatus::kFrame);
        server.handle_frame(view.type, view.payload, binary_log.sink());
      }
      server.drain();
    }

    std::vector<JobResult> from_lines = ndjson_log.results();
    std::vector<JobResult> from_frames = binary_results(binary_log.lines());
    ASSERT_EQ(from_lines.size(), static_cast<std::size_t>(kJobs));
    ASSERT_EQ(from_frames.size(), static_cast<std::size_t>(kJobs));
    sort_by_id(from_lines);
    sort_by_id(from_frames);
    for (int k = 0; k < kJobs; ++k) {
      expect_same_result(from_lines[static_cast<std::size_t>(k)],
                         from_frames[static_cast<std::size_t>(k)]);
    }
  }
}

/// One scripted exchange that draws every reply kind from a server, each
/// request sent in one framing.  Returns the replies in arrival order as
/// NDJSON lines: a binary reply is rendered by the client-side decoder
/// (reply_frame_to_line), so the two framings compare line by line.
std::vector<std::string> every_reply_kind(bool binary) {
  const std::string problem = tiny_problem_text();
  ResponseLog log;
  ServerOptions options;
  options.queue_capacity = 2;
  options.autostart = false;  // q1 and q2 stay queued until start()
  Server server(options);
  const auto send = [&](const Request& request) {
    if (!binary) {
      server.handle_line(format_request(request), log.sink());
      return;
    }
    const std::string frame = wire_frame(request);
    wire::FrameView view;
    std::string error;
    ASSERT_EQ(wire::peek_frame(frame, view, error), wire::FrameStatus::kFrame);
    server.handle_frame(view.type, view.payload, log.sink());
  };
  const auto request_of = [](RequestType type, const std::string& id) {
    Request request;
    request.type = type;
    request.id = id;
    return request;
  };

  send(make_wire_request("q1", problem));
  send(make_wire_request("q2", problem));
  send(make_wire_request("q1", problem));  // reject: duplicate id
  send(make_wire_request("q3", problem));  // reject: queue full
  Request unreadable = make_wire_request("pf", "");
  unreadable.problem_file = "/nonexistent/qbpart-missing.qp";
  send(unreadable);                                  // reject: unreadable file
  send(request_of(RequestType::kCancel, "nope"));    // reject: unknown id
  send(request_of(RequestType::kCancel, "q2"));      // result: cancelled
  send(request_of(RequestType::kCancel, ""));        // error in both framings
  Request bad_spec = make_wire_request("bs", problem);
  bad_spec.solver.starts = 0;
  send(bad_spec);  // error: check_spec's message in both framings
  if (binary) {
    server.handle_frame(static_cast<std::uint8_t>(WireMsg::kCancel),
                        std::string("\xFF", 1), log.sink());
    server.handle_frame(99, {}, log.sink());
  } else {
    server.handle_line("this is not json", log.sink());
    server.handle_line("{\"type\":\"bogus\"}", log.sink());
  }
  send(request_of(RequestType::kStats, ""));

  // workers_busy moves by atomic adds around each job, so it reads 1 only
  // while the worker holds a job.
  const auto wait_busy = [&server](std::int64_t busy) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (server.metrics().gauge("workers_busy").value() != busy &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  const std::size_t staged = log.lines().size();
  server.start();
  EXPECT_TRUE(log.wait_for(staged + 1));  // q1's result
  wait_busy(0);
  // A job that runs for seconds (4096 SA starts on one thread), cancelled
  // once the worker holds it: an ack, then its "cancelled" result.
  Request slow = make_wire_request("r1", problem);
  slow.solver.method = "sa";
  slow.solver.starts = 4096;
  slow.solver.threads = 1;
  send(slow);
  wait_busy(1);
  const std::size_t before_cancel = log.lines().size();
  send(request_of(RequestType::kCancel, "r1"));
  EXPECT_TRUE(log.wait_for(before_cancel + 2));
  send(request_of(RequestType::kShutdown, ""));
  server.begin_drain();
  send(make_wire_request("late", problem));  // reject: draining
  server.drain();

  std::vector<std::string> lines = log.lines();
  if (!binary) return lines;
  for (std::string& reply : lines) {
    wire::FrameView frame;
    std::string error;
    std::string line;
    EXPECT_EQ(wire::peek_frame(reply, frame, error), wire::FrameStatus::kFrame);
    EXPECT_EQ(frame.frame_size, reply.size());
    EXPECT_TRUE(reply_frame_to_line(frame.type, frame.payload, line, error))
        << error;
    reply = line;
  }
  return lines;
}

/// A result line with its timing fields zeroed; any other line unchanged.
std::string without_timing(const std::string& line) {
  json::Value value;
  if (!json::parse(line, value).ok || value.get_string("type") != "result") {
    return line;
  }
  JobResult result;
  EXPECT_TRUE(result_from_json(value, result).ok) << line;
  result.queue_wait_s = 0.0;
  result.solve_s = 0.0;
  result.presolve_s = 0.0;
  return result_to_json(result).dump();
}

TEST(Server, EveryReplyKindIsTheSameInBothFramings) {
  const std::vector<std::string> ndjson = every_reply_kind(/*binary=*/false);
  const std::vector<std::string> binary = every_reply_kind(/*binary=*/true);
  ASSERT_EQ(ndjson.size(), 15u);
  ASSERT_EQ(binary.size(), 15u);

  // Notes: the NDJSON lines the server has always sent.
  const std::vector<std::pair<std::size_t, std::string>> golden = {
      {0, R"j({"type":"reject","id":"q1","reason":"duplicate id: a job with this id is still queued or running"})j"},
      {1, R"j({"type":"reject","id":"q3","reason":"queue full (capacity 2)"})j"},
      {2, R"j({"type":"reject","id":"pf","reason":"cannot read problem_file '/nonexistent/qbpart-missing.qp'"})j"},
      {3, R"j({"type":"reject","id":"nope","reason":"unknown job id"})j"},
      {5, R"j({"type":"error","reason":"cancel requires an 'id'"})j"},
      {6, R"j({"type":"error","reason":"'starts' must be >= 1"})j"},
      {11, R"j({"type":"cancel","id":"r1","status":"signalled"})j"},
      {13, R"j({"type":"shutdown","status":"draining"})j"},
      {14, R"j({"type":"reject","id":"late","reason":"server draining"})j"},
  };
  for (const auto& [k, line] : golden) {
    EXPECT_EQ(ndjson[k], line) << "reply " << k;
    EXPECT_EQ(binary[k], line) << "reply " << k;
  }
  // Malformed input exists in one framing only.
  EXPECT_EQ(ndjson[7],
            R"j({"type":"error","reason":"malformed JSON: byte 0: unexpected token"})j");
  EXPECT_EQ(ndjson[8],
            R"j({"type":"error","reason":"unknown request type 'bogus'"})j");
  EXPECT_EQ(binary[7], R"j({"type":"error","reason":"bad cancel frame"})j");
  EXPECT_EQ(binary[8], R"j({"type":"error","reason":"unknown frame type 99"})j");

  // Results: the queued cancel (4) and q1's answer (10) match but for
  // timing; the running cancel (12) keeps whatever its starts reached
  // before the stop, so only its id and status are fixed.
  for (const std::size_t k : {4u, 10u}) {
    EXPECT_EQ(without_timing(ndjson[k]), without_timing(binary[k]))
        << "reply " << k;
  }
  EXPECT_NE(ndjson[4].find(R"j("id":"q2","status":"cancelled")j"),
            std::string::npos) << ndjson[4];
  EXPECT_NE(ndjson[10].find(R"j("id":"q1","status":"ok")j"), std::string::npos)
      << ndjson[10];
  for (const std::string& line : {ndjson[12], binary[12]}) {
    JobResult running;
    json::Value value;
    ASSERT_TRUE(json::parse(line, value).ok) << line;
    ASSERT_TRUE(result_from_json(value, running).ok);
    EXPECT_EQ(running.id, "r1");
    EXPECT_EQ(running.status, "cancelled");
  }

  // Stats: one document, the same schema and request counts either way
  // (its uptime, timings and wire.* counters differ by nature).
  json::Value ndjson_stats;
  json::Value binary_stats;
  ASSERT_TRUE(json::parse(ndjson[9], ndjson_stats).ok) << ndjson[9];
  ASSERT_TRUE(json::parse(binary[9], binary_stats).ok) << binary[9];
  ASSERT_EQ(ndjson_stats.size(), binary_stats.size());
  for (std::size_t k = 0; k < ndjson_stats.size(); ++k) {
    EXPECT_EQ(ndjson_stats.key_at(k), binary_stats.key_at(k));
  }
  EXPECT_EQ(ndjson_stats.get_string("type"), "stats");
  for (const char* counter :
       {"requests_total", "requests_malformed", "jobs_rejected"}) {
    EXPECT_EQ(ndjson_stats.find("counters")->get_number(counter, -1.0),
              binary_stats.find("counters")->get_number(counter, -1.0))
        << counter;
  }
}

TEST(Server, WireMetricsPopulateOnBinaryTraffic) {
  const std::string problem = tiny_problem_text();
  ResponseLog log;
  Server server(ServerOptions{});
  const std::string frame = wire_frame(make_wire_request("w1", problem));
  wire::FrameView view;
  std::string error;
  ASSERT_EQ(wire::peek_frame(frame, view, error), wire::FrameStatus::kFrame);
  server.handle_frame(view.type, view.payload, log.sink());
  server.drain();

  const json::Value stats = server.stats_json();
  const json::Value* counters = stats.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->get_number("wire.frames", 0), 1.0);
  EXPECT_GE(counters->get_number("wire.bytes_in", 0),
            static_cast<double>(view.payload.size()));
  EXPECT_GE(counters->get_number("wire.bytes_out", 0), 1.0);
  const json::Value* histograms = stats.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* decode = histograms->find("wire.decode_seconds");
  ASSERT_NE(decode, nullptr);
  EXPECT_GE(decode->get_number("count", 0), 1.0);
}

// ---------------------------------------------------------- serve loops ----

/// Run serve_fd over pipes: feed `input` as the connection's bytes, return
/// everything the serve loop wrote.  The write side closes after the
/// input, so the loop sees EOF, drains and exits -- one whole connection.
std::string serve_fd_session(Server& server, const std::string& input,
                             WireMode mode) {
  int in_pipe[2];
  int out_pipe[2];
  EXPECT_EQ(::pipe(in_pipe), 0);
  EXPECT_EQ(::pipe(out_pipe), 0);
  std::thread serve([&server, &in_pipe, &out_pipe, mode] {
    (void)serve_fd(server, in_pipe[0], out_pipe[1], /*wake_fd=*/-1, mode);
  });
  std::size_t written = 0;
  while (written < input.size()) {
    const ssize_t n = ::write(in_pipe[1], input.data() + written,
                              input.size() - written);
    if (n <= 0) {
      ADD_FAILURE() << "pipe write failed";
      break;
    }
    written += static_cast<std::size_t>(n);
  }
  ::close(in_pipe[1]);
  serve.join();
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  std::string output;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(out_pipe[0], buffer, sizeof buffer);
    if (n <= 0) break;
    output.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(out_pipe[0]);
  return output;
}

TEST(ServeLoop, AutoDetectServesBothFramingsOverPipes) {
  const std::string problem = tiny_problem_text();

  // NDJSON connection: first byte '{' -> line framing.
  std::string ndjson_reply;
  {
    Server server(ServerOptions{});
    ndjson_reply = serve_fd_session(
        server, format_request(make_wire_request("a1", problem, 7)) + "\n",
        WireMode::kAuto);
  }
  json::Value value;
  ASSERT_TRUE(json::parse(ndjson_reply, value).ok) << ndjson_reply;
  JobResult ndjson_result;
  ASSERT_TRUE(result_from_json(value, ndjson_result).ok);
  EXPECT_EQ(ndjson_result.id, "a1");

  // Binary connection on the SAME entry point: first byte 0x9B -> frames.
  std::string binary_reply;
  {
    Server server(ServerOptions{});
    binary_reply = serve_fd_session(
        server, wire_frame(make_wire_request("a1", problem, 7)),
        WireMode::kAuto);
  }
  const std::vector<JobResult> results = binary_results({binary_reply});
  ASSERT_EQ(results.size(), 1u);
  expect_same_result(ndjson_result, results[0]);
}

TEST(ServeLoop, ForcedNdjsonTreatsBinaryBytesAsText) {
  // With --wire ndjson the sniffing is off: frame bytes are just a very
  // broken text line, answered with a parse error -- the pre-binary
  // behaviour a pinned deployment relies on.
  Server server(ServerOptions{});
  const std::string reply = serve_fd_session(
      server, wire_frame(make_wire_request("n1", tiny_problem_text())) + "\n",
      WireMode::kNdjson);
  EXPECT_NE(reply.find("\"type\":\"error\""), std::string::npos) << reply;
}

TEST(ServeLoop, ForcedBinaryRejectsTextBytes) {
  Server server(ServerOptions{});
  const std::string reply = serve_fd_session(
      server, "{\"type\":\"stats\"}\n", WireMode::kBinary);
  // The reply is an error FRAME (kBad magic on the text bytes).
  wire::FrameView frame;
  std::string error;
  ASSERT_EQ(wire::peek_frame(reply, frame, error), wire::FrameStatus::kFrame)
      << "expected a binary error frame, got: " << reply;
  EXPECT_EQ(static_cast<WireMsg>(frame.type), WireMsg::kError);
  std::string line;
  ASSERT_TRUE(reply_frame_to_line(frame.type, frame.payload, line, error));
  EXPECT_EQ(line, R"j({"type":"error","reason":"bad frame magic"})j");
}

class TcpServerFixture {
 public:
  explicit TcpServerFixture(ServerOptions options = {})
      : server_(options), thread_([this] {
          (void)serve_tcp(server_, /*port=*/0, /*wake_fd=*/-1, WireMode::kAuto,
                          &port_);
        }) {
    while (port_.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  ~TcpServerFixture() {
    // A shutdown request flags the accept loop; it exits on its next poll.
    TcpClient client;
    if (client.connect(port())) {
      (void)client.send_line("{\"type\":\"shutdown\"}");
      std::string line;
      (void)client.read_line(line);
    }
    thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return port_.load(); }
  [[nodiscard]] Server& server() { return server_; }

 private:
  Server server_;
  std::atomic<std::uint16_t> port_{0};
  std::thread thread_;
};

TEST(ServeLoop, MixedFramingClientsOnOneTcpServer) {
  const std::string problem = tiny_problem_text();
  TcpServerFixture fixture;

  TcpClient ndjson_client;
  ASSERT_TRUE(ndjson_client.connect(fixture.port()));
  ASSERT_TRUE(ndjson_client.send_line(
      format_request(make_wire_request("t1", problem, 7))));

  TcpClient binary_client;
  ASSERT_TRUE(binary_client.connect(fixture.port()));
  ASSERT_TRUE(binary_client.send_bytes(
      wire_frame(make_wire_request("t2", problem, 7))));

  std::string line;
  ASSERT_TRUE(ndjson_client.read_line(line));
  json::Value value;
  ASSERT_TRUE(json::parse(line, value).ok) << line;
  JobResult ndjson_result;
  ASSERT_TRUE(result_from_json(value, ndjson_result).ok);

  std::uint8_t type = 0;
  std::string payload;
  ASSERT_TRUE(binary_client.read_frame(type, payload));
  ASSERT_EQ(static_cast<WireMsg>(type), WireMsg::kResult);
  JobResult binary_result;
  std::string error;
  ASSERT_TRUE(decode_result(payload, binary_result, error)) << error;

  // Same problem, same seed -> identical bits modulo the id and timing.
  EXPECT_EQ(ndjson_result.id, "t1");
  EXPECT_EQ(binary_result.id, "t2");
  EXPECT_EQ(ndjson_result.status, binary_result.status);
  EXPECT_EQ(ndjson_result.objective, binary_result.objective);
  EXPECT_EQ(ndjson_result.assignment, binary_result.assignment);
}

TEST(ServeLoop, MalformedFramesFailOneConnectionNotTheDaemon) {
  const std::string problem = tiny_problem_text();
  TcpServerFixture fixture;

  {
    // Bad magic after the binary sniff byte: the connection gets an error
    // frame and is closed.
    TcpClient hostile;
    ASSERT_TRUE(hostile.connect(fixture.port()));
    ASSERT_TRUE(hostile.send_bytes(std::string("\x9BXYZ-not-a-frame", 16)));
    std::uint8_t type = 0;
    std::string payload;
    ASSERT_TRUE(hostile.read_frame(type, payload));
    EXPECT_EQ(static_cast<WireMsg>(type), WireMsg::kError);
    // The server closes its side; the next read sees EOF.
    EXPECT_FALSE(hostile.read_frame(type, payload));
  }
  {
    // A header advertising an oversized payload is kBad, same containment.
    std::string oversized = wire_frame(make_wire_request("x", problem));
    const std::uint32_t huge = wire::kMaxPayload + 1;
    std::memcpy(oversized.data() + 8, &huge, sizeof huge);
    TcpClient hostile;
    ASSERT_TRUE(hostile.connect(fixture.port()));
    ASSERT_TRUE(hostile.send_bytes(oversized));
    std::uint8_t type = 0;
    std::string payload;
    ASSERT_TRUE(hostile.read_frame(type, payload));
    EXPECT_EQ(static_cast<WireMsg>(type), WireMsg::kError);
  }
  {
    // A truncated frame then disconnect: no reply owed, nothing crashes.
    TcpClient hostile;
    ASSERT_TRUE(hostile.connect(fixture.port()));
    const std::string frame = wire_frame(make_wire_request("y", problem));
    ASSERT_TRUE(hostile.send_bytes(frame.substr(0, frame.size() / 2)));
    hostile.close();
  }

  // The daemon is still healthy: a fresh well-formed client round-trips.
  TcpClient good;
  ASSERT_TRUE(good.connect(fixture.port()));
  ASSERT_TRUE(good.send_bytes(wire_frame(make_wire_request("z1", problem))));
  std::uint8_t type = 0;
  std::string payload;
  ASSERT_TRUE(good.read_frame(type, payload));
  EXPECT_EQ(static_cast<WireMsg>(type), WireMsg::kResult);
}

/// Lines of this process's memory map: every live or exited-but-unjoined
/// thread keeps a stack and a guard mapping here.
std::size_t mapped_regions() {
  std::ifstream maps("/proc/self/maps");
  return static_cast<std::size_t>(
      std::count(std::istreambuf_iterator<char>(maps),
                 std::istreambuf_iterator<char>(), '\n'));
}

TEST(ServeLoop, FinishedConnectionsReleaseTheirReaderThreads) {
  // The accept loop joins each finished reader on its next pass.  Readers
  // kept until shutdown would add two mappings per connection (+256 here);
  // the bound leaves room for malloc arenas, which are capped per process.
  TcpServerFixture fixture;
  const auto round_trip = [&] {
    TcpClient client;
    ASSERT_TRUE(client.connect(fixture.port()));
    ASSERT_TRUE(client.send_line("{\"type\":\"stats\"}"));
    std::string line;
    ASSERT_TRUE(client.read_line(line));
  };
  round_trip();  // warm-up: first-use allocations land before the baseline
  const std::size_t baseline = mapped_regions();
  for (int k = 0; k < 128; ++k) round_trip();

  std::size_t after = mapped_regions();
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (after > baseline + 64 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    after = mapped_regions();
  }
  EXPECT_LE(after, baseline + 64) << "baseline " << baseline;
}

/// Connect the raw socket `fd` to the loopback server on `port`.
bool connect_socket(int fd, std::uint16_t port) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                   sizeof address) == 0;
}

/// Send all of `bytes` on `fd`; false when the socket fails first.
bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Everything `fd` receives until EOF, or until `quiet` passes without a
/// byte arriving.
std::string receive_until_quiet(int fd, std::chrono::milliseconds quiet) {
  std::string received;
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(quiet.count())) <= 0) break;
    char buffer[4096];
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n <= 0) break;
    received.append(buffer, static_cast<std::size_t>(n));
  }
  return received;
}

TEST(ServeLoop, HalfClosedClientGetsItsOwnReply) {
  // Client A submits, half-closes and keeps reading; its job runs only
  // after A's reader has seen EOF and client B has connected.  A closed
  // socket would free A's fd number for B's connection, and A's reply
  // would go to B.  The connection owns its socket until A is answered.
  ServerOptions options;
  options.autostart = false;
  TcpServerFixture fixture(options);

  const int a = ::socket(AF_INET, SOCK_STREAM, 0);
  // B's client socket is made now, so that the fd the accept loop hands
  // B's connection is the lowest free one once A's reader is gone.
  const int b = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  ASSERT_TRUE(connect_socket(a, fixture.port()));
  ASSERT_TRUE(send_all(a, submit_line("A", tiny_problem_text()) + "\n"));
  ASSERT_EQ(::shutdown(a, SHUT_WR), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  ASSERT_TRUE(connect_socket(b, fixture.port()));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  fixture.server().start();

  const std::string to_a = receive_until_quiet(a, std::chrono::seconds(30));
  const std::string to_b =
      receive_until_quiet(b, std::chrono::milliseconds(300));
  ::close(a);
  ::close(b);
  json::Value value;
  EXPECT_TRUE(json::parse(to_a, value).ok &&
              value.get_string("type", "") == "result" &&
              value.get_string("id", "") == "A")
      << "A received: " << to_a;
  EXPECT_EQ(to_b.find(R"("id":"A")"), std::string::npos)
      << "B received A's reply: " << to_b;
}

/// A raw client socket with a 4 KiB receive window, connected to `port`:
/// when it never reads, the server's writes to it back up soon.  -1 on
/// failure.
int connect_small_window(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  const int window = 4096;
  if (fd < 0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &window, sizeof window) != 0 ||
      !connect_socket(fd, port)) {
    if (fd >= 0) ::close(fd);
    return -1;
  }
  return fd;
}

/// Whether `client`'s next line contains `needle` and arrives within
/// `limit`.  The line is read on a thread of its own, so a server that
/// stalls fails the test instead of hanging it: `release` closes the
/// stalling client, whose unread replies reset the connection and free
/// such a server, before that thread is joined.
bool next_line_within(TcpClient& client, std::string_view needle,
                      std::chrono::steady_clock::duration limit,
                      const std::function<void()>& release) {
  const auto give_up = std::chrono::steady_clock::now() + limit;
  std::atomic<bool> answered{false};
  std::thread reader([&client, &answered, needle] {
    std::string line;
    answered.store(client.read_line(line) &&
                   line.find(needle) != std::string::npos);
  });
  while (!answered.load() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool in_time = answered.load();
  release();
  reader.join();
  return in_time;
}

TEST(ServeLoop, StalledClientDoesNotDelayOthers) {
  // Client X floods stats requests and never reads, so its reader blocks
  // writing X's replies.  That stalls X alone: client Y's stats request is
  // answered at once.
  TcpServerFixture fixture;
  const int x = connect_small_window(fixture.port());
  ASSERT_GE(x, 0);
  TcpClient y;
  ASSERT_TRUE(y.connect(fixture.port()));

  std::string flood;
  for (int k = 0; k < 5000; ++k) flood += "{\"type\":\"stats\"}\n";  // 85 kB
  std::thread flooder([x, &flood] { (void)send_all(x, flood); });
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  EXPECT_TRUE(y.send_line(R"({"type":"stats"})"));
  EXPECT_TRUE(next_line_within(y, R"("type":"stats")", std::chrono::seconds(2),
                               [&] {
                                 ::shutdown(x, SHUT_RDWR);
                                 flooder.join();
                                 ::close(x);
                               }))
      << "Y's stats reply took longer than 2 s";
}

TEST(ServeLoop, ClientThatNeverReadsLosesItsConnectionNotTheWorker) {
  // One worker.  Client X submits 600 jobs on a problem of 20,000
  // components that presolve cuts to two (a few ms each, ~40 kB replies)
  // and never reads, so the worker's write to X stalls once the loopback
  // buffers are full.  The server gives a stalled reply 2 s, then fails
  // X's connection: its queued jobs are answered unsolved and dropped.
  // Client Y's job, queued behind X's, is answered within that deadline
  // plus a margin: what X's jobs cost in this build, measured on Y first,
  // and 1 s.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("qbpart_wide_" + std::to_string(::getpid()) + ".qp"))
          .string();
  {
    // Only c0 and c1 fit partition 1: R0 fixes the rest in partition 0.
    std::ofstream out(path);
    out << "problem wide\ntopology grid 1 2 manhattan\ncapacities 20000 0.5\n";
    for (int j = 0; j < 20000; ++j) {
      out << "component c" << j << (j < 2 ? " 0.25\n" : " 1\n");
    }
  }
  ServerOptions options;
  options.cache_capacity = 0;
  options.queue_capacity = 1024;
  TcpServerFixture fixture(options);
  const auto wide_job = [&path](const std::string& id) {
    Request request;
    request.type = RequestType::kSubmit;
    request.id = id;
    request.problem_file = path;
    request.solver.iterations = 1;
    return format_request(request) + "\n";
  };

  TcpClient y;
  ASSERT_TRUE(y.connect(fixture.port()));
  const auto calibration_start = std::chrono::steady_clock::now();
  ASSERT_TRUE(y.send_line(wide_job("c0") + wide_job("c1") + wide_job("c2")));
  for (std::string line; line.empty() || line.find(R"("id":"c2")") == std::string::npos;) {
    ASSERT_TRUE(y.read_line(line));
  }
  constexpr int kJobs = 600;
  const auto limit = std::chrono::seconds(3) +
                     (std::chrono::steady_clock::now() - calibration_start) *
                         kJobs / 3;

  const int x = connect_small_window(fixture.port());
  ASSERT_GE(x, 0);
  std::string jobs;
  for (int k = 0; k < kJobs; ++k) jobs += wide_job("x" + std::to_string(k));
  ASSERT_TRUE(send_all(x, jobs));
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  ASSERT_TRUE(y.send_line(submit_line("y", tiny_problem_text())));
  EXPECT_TRUE(next_line_within(y, R"("id":"y")", limit, [x] { ::close(x); }))
      << "Y waited over " << std::chrono::duration<double>(limit).count()
      << " s behind X's stalled reply";
  std::filesystem::remove(path);
}

TEST(ServeLoop, FailedConnectionStopsItsRunningJob) {
  // Two workers.  Client X's long job -- ten million Burkard iterations,
  // far longer than this test waits -- runs on one worker.  X then floods
  // stats requests and never reads, so its connection's replies stall;
  // 2 s after the first blocked write the connection fails.  Its running
  // job must stop then, within a few solver iterations: answered
  // "cancelled" (and the reply dropped), not solved to the end.  Client
  // Y's job meanwhile runs on the other worker.
  ServerOptions options;
  options.workers = 2;
  options.cache_capacity = 0;
  TcpServerFixture fixture(options);
  MetricsRegistry& metrics = fixture.server().metrics();

  Request long_job;
  long_job.type = RequestType::kSubmit;
  long_job.id = "long";
  {
    std::ostringstream problem;
    write_problem(problem,
                  test::make_tiny_problem({.num_components = 150,
                                           .num_partitions = 6,
                                           .wire_probability = 0.05,
                                           .constraint_probability = 0.02,
                                           .seed = 5}));
    long_job.problem_text = problem.str();
  }
  long_job.solver.iterations = 10'000'000;
  long_job.solver.presolve = false;
  const int x = connect_small_window(fixture.port());
  ASSERT_GE(x, 0);
  ASSERT_TRUE(send_all(x, format_request(long_job) + "\n"));
  const auto running_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (metrics.gauge("workers_busy").value() < 1 &&
         std::chrono::steady_clock::now() < running_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(metrics.gauge("workers_busy").value(), 1);
  TcpClient y;
  ASSERT_TRUE(y.connect(fixture.port()));

  std::string flood;
  for (int k = 0; k < 5000; ++k) flood += "{\"type\":\"stats\"}\n";
  const auto flood_start = std::chrono::steady_clock::now();
  std::thread flooder([x, &flood] { (void)send_all(x, flood); });

  std::string line;
  EXPECT_TRUE(y.send_line(submit_line("y", tiny_problem_text())) &&
              y.read_line(line));
  EXPECT_NE(line.find(R"("id":"y")"), std::string::npos) << line;

  // The 2 s deadline, plus a margin for filling the buffers first and for
  // the iteration in progress.
  const auto limit = flood_start + std::chrono::seconds(5);
  while (metrics.counter("jobs_completed").value() < 2 &&
         std::chrono::steady_clock::now() < limit) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - flood_start)
                            .count();
  const bool stopped = metrics.counter("jobs_completed").value() == 2;
  // A job the failure left running is cancelled here, so the fixture's
  // shutdown does not wait for its full solve.
  line.clear();
  EXPECT_TRUE(y.send_line(R"({"type":"cancel","id":"long"})") &&
              y.read_line(line));
  ::shutdown(x, SHUT_RDWR);
  flooder.join();
  ::close(x);
  EXPECT_TRUE(stopped) << "X's job still ran " << waited
                       << " s after its connection started to stall";
  EXPECT_NE(line.find("unknown job id"), std::string::npos) << line;
  EXPECT_EQ(metrics.counter("jobs_cancelled").value(), 1);
  EXPECT_EQ(metrics.counter("jobs_ok").value(), 1);  // Y's
}

// ------------------------------------------------------------ metrics ----

TEST(Metrics, StripedCounterSumsConcurrentIncrements) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("striped");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int k = 0; k < kIncrements; ++k) counter.inc();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::int64_t>(kThreads) * kIncrements);
}

TEST(Metrics, HistogramBucketsAreCumulativeInJson) {
  MetricsRegistry registry;
  auto& histogram = registry.histogram("h", Histogram::latency_bounds());
  histogram.observe(0.0005);  // below the first bound
  histogram.observe(0.003);
  histogram.observe(100.0);  // beyond the last bound -> +inf bucket

  const auto snapshot = histogram.snapshot();
  EXPECT_EQ(snapshot.count, 3);
  EXPECT_DOUBLE_EQ(snapshot.min, 0.0005);
  EXPECT_DOUBLE_EQ(snapshot.max, 100.0);

  const json::Value rendered = registry.to_json();
  const json::Value* h = rendered.find("histograms")->find("h");
  ASSERT_NE(h, nullptr);
  const json::Value* buckets = h->find("buckets");
  ASSERT_NE(buckets, nullptr);
  // Cumulative: every bucket count <= the next, final bucket is the total.
  double previous = 0.0;
  for (std::size_t k = 0; k < buckets->size(); ++k) {
    const double count = buckets->at(k).get_number("count", -1.0);
    EXPECT_GE(count, previous);
    previous = count;
  }
  EXPECT_DOUBLE_EQ(previous, 3.0);
}

TEST(Metrics, RegistryReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& first = registry.counter("x");
  first.inc();
  Counter& again = registry.counter("x");
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(again.value(), 1);
}

}  // namespace
}  // namespace qbp::service
