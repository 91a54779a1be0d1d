// Workloads `serve-eco` and `serve-cold`: qbpartd's Server behind
// serve_tcp on a loopback port, driven by an in-process load generator
// that uses at most nproc threads and connections.
//
//   serve-eco   open loop at a fixed rate over NDJSON (qbpart_submit's
//               default framing).  A few base designs are primed into the
//               cache during set-up; the timed requests are 3 exact
//               resubmits of a base to 1 distinct make_eco_variant edit,
//               so edge JSON decode, .qp parse, fingerprinting, cache reads
//               and the warm path do the work.  Latency runs from each
//               request's due time.
//   serve-cold  closed loop, one connection per core, binary framing.
//               Every request is a distinct design (scaling and presolve
//               families), so every lookup misses and every answer is a
//               presolve + cold solve whose result is inserted (and evicts
//               at capacity).  Latency runs from the send.
//
// Every reply is decoded and re-validated on the problem that was
// submitted (common.hpp check_answer).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_support/circuits.hpp"
#include "bench_support/eco_stream.hpp"
#include "common.hpp"
#include "core/fingerprint.hpp"
#include "core/presolve.hpp"
#include "core/problem_io.hpp"
#include "core/validate.hpp"
#include "engine/adapters.hpp"
#include "engine/pipeline.hpp"
#include "service/cache.hpp"
#include "service/client.hpp"
#include "service/job.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "util/wire.hpp"

namespace perfbench {
namespace {

namespace svc = qbp::service;
using qbp::json::Value;

constexpr int kSetupReps = 3;

// serve-eco shape.
constexpr std::int32_t kEcoBaseN = 400;
constexpr std::int32_t kEcoBases = 4;
constexpr double kEcoRate = 60.0;  // requests per second, open loop
constexpr std::size_t kEcoTailWindows = 5;
/// Requests of the ECO stretch that serve-cold's traced run sends.
constexpr std::int64_t kEcoProbeRequests = 300;
/// SLO ladder (traced runs): each rung runs kLadderStepS seconds; a rung
/// passes when p99 <= kSloLimitMs with no growing backlog.
constexpr double kLadderRates[] = {100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0};
constexpr double kLadderStepS = 2.0;
constexpr double kSloLimitMs = 50.0;

// serve-cold shape: the batch holds kColdJobsPerSecond x --seconds designs,
// which keeps a run near --seconds on a 4-core host at the parent commit.
constexpr double kColdJobsPerSecond = 13.0;
constexpr std::int32_t kColdSizes[] = {150, 200, 250};

/// Requests the traced run replays layer by layer.
constexpr std::size_t kEcoReplay = 200;
constexpr std::size_t kColdReplay = 12;

/// Give up on replies this long after the last request was due.
constexpr double kReplyGraceS = 60.0;

/// Every submit asks for 2 portfolio starts and keeps the daemon default
/// otherwise (100 QBP iterations, presolve on, cache and warm start
/// allowed).  With the default single start, roughly 0.1-0.5% of generated
/// designs -- all with a known feasible placement -- come back
/// "infeasible", which would fail most runs of a few hundred distinct
/// designs; two starts answered 4200 of 4200 at N <= 250.
svc::Request submit_request(std::string id) {
  svc::Request request;
  request.type = svc::RequestType::kSubmit;
  request.id = std::move(id);
  request.solver.starts = 2;
  return request;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + k + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string to_text(const qbp::PartitionProblem& problem) {
  std::ostringstream out;
  qbp::write_problem(out, problem);
  return out.str();
}

std::optional<qbp::PartitionProblem> parse_text(const std::string& text) {
  qbp::PartitionProblem problem;
  std::istringstream in(text);
  if (!qbp::read_problem(in, problem).ok) return std::nullopt;
  return problem;
}

/// Fixed-width request ids, so a pre-rendered request can be re-stamped in
/// place: prefix + 9 digits.
std::string request_id(char prefix, std::int64_t k) {
  char id[16];
  std::snprintf(id, sizeof id, "%c%09lld", prefix, static_cast<long long>(k));
  return id;
}

std::int64_t id_number(const std::string& id) {
  if (id.size() != 10) return -1;
  return std::strtoll(id.c_str() + 1, nullptr, 10);
}

/// serve_tcp on an ephemeral loopback port, on a thread of its own.
class ServerHarness {
 public:
  explicit ServerHarness(const svc::ServerOptions& options) : server_(options) {
    if (::pipe(wake_) != 0) throw std::runtime_error("pipe() failed");
    thread_ = std::thread([this] {
      (void)svc::serve_tcp(server_, 0, wake_[0], svc::WireMode::kAuto, &port_);
      exited_.store(true);
    });
    while (port_.load() == 0 && !exited_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~ServerHarness() {
    stop();
    ::close(wake_[0]);
    ::close(wake_[1]);
  }
  ServerHarness(const ServerHarness&) = delete;
  ServerHarness& operator=(const ServerHarness&) = delete;

  /// Wake serve_tcp, which closes every connection and drains the server.
  void stop() {
    if (!thread_.joinable()) return;
    const char byte = 'x';
    (void)::write(wake_[1], &byte, 1);
    thread_.join();
  }
  [[nodiscard]] std::uint16_t port() const {
    return exited_.load() ? 0 : port_.load();
  }

 private:
  svc::Server server_;
  int wake_[2] = {-1, -1};
  std::atomic<std::uint16_t> port_{0};
  std::atomic<bool> exited_{false};
  std::thread thread_;  // last: joined before the members above go away
};

svc::ServerOptions server_options() {
  svc::ServerOptions options;
  options.workers = host_threads();
  return options;  // daemon defaults otherwise: queue 64, cache 64 entries
}

/// The server's `stats` reply, fetched over a connection of its own.
Value fetch_stats(std::uint16_t port) {
  svc::TcpClient client;
  std::string line;
  Value stats;
  if (!client.connect(port) || !client.send_line(R"({"type":"stats"})") ||
      !client.read_line(line) || !qbp::json::parse(line, stats).ok) {
    return Value::object();
  }
  return stats;
}

/// Quantile of a stats-reply histogram ({"count", "buckets":[{le,count}]}),
/// interpolated linearly inside the bucket; seconds.
double histogram_quantile(const Value& histogram, double q) {
  const Value* buckets = histogram.find("buckets");
  const double count = histogram.get_number("count", 0.0);
  if (buckets == nullptr || count <= 0.0) return 0.0;
  const double target = q * count;
  double lower = 0.0;
  double below = 0.0;
  for (std::size_t k = 0; k < buckets->size(); ++k) {
    const Value& bucket = buckets->at(k);
    const double cumulative = bucket.get_number("count", 0.0);
    const Value* le = bucket.find("le");
    const double upper = le != nullptr && le->is_number()
                             ? le->as_number()
                             : histogram.get_number("max", lower);
    if (cumulative >= target) {
      const double inside = cumulative - below;
      return inside <= 0.0 ? upper
                           : lower + (upper - lower) * (target - below) / inside;
    }
    lower = upper;
    below = cumulative;
  }
  return histogram.get_number("max", 0.0);
}

/// Server-side figures every serve workload reports from `stats`.
void stats_metrics(const Value& stats, Values& layer) {
  const Value* histograms = stats.find("histograms");
  const Value* wait =
      histograms != nullptr ? histograms->find("queue_wait_seconds") : nullptr;
  if (wait != nullptr) {
    layer["service.server.queue_wait_ms_p50"] =
        histogram_quantile(*wait, 0.50) * 1000.0;
    layer["service.server.queue_wait_ms_p99"] =
        histogram_quantile(*wait, 0.99) * 1000.0;
  }
  const Value* gauges = stats.find("gauges");
  if (gauges != nullptr) {
    layer["service.cache.evictions"] =
        gauges->get_number("cache.evictions", 0.0);
  }
}

/// One request's life as the load generator saw it.
struct Exchange {
  Clock::time_point due{};
  Clock::time_point sent{};
  Clock::time_point received{};
  bool answered = false;
  std::string reply;  // NDJSON line or binary frame payload
  std::uint8_t frame_type = 0;
};

struct PhaseCounts {
  std::int64_t sent = 0;
  std::int64_t succeeded = 0;
  std::int64_t failed = 0;
  /// Latencies (ms) of the answers per class: exact cache hit, warm
  /// start, cold solve.
  std::map<std::string, std::vector<double>> by_class;

  [[nodiscard]] Value to_json() const {
    Value out = Value::object();
    out.set("sent", sent);
    out.set("succeeded", succeeded);
    out.set("failed", failed);
    for (const auto& [name, ms] : by_class) {
      Value one = Value::object();
      one.set("count", static_cast<std::int64_t>(ms.size()));
      one.set("p50_ms", median(ms));
      one.set("p99_ms", percentile(ms, 99.0));
      out.set(name, std::move(one));
    }
    return out;
  }
};

/// Latency samples of one phase in ms; a request that failed or was never
/// answered counts as missing every limit (it gets the phase's length).
struct Latencies {
  std::vector<double> ms;
  std::vector<double> late_ms;
  double wall_s = 0.0;
  std::int64_t answered = 0;
};

// --------------------------------------------------------------- serve-eco

struct EcoDesign {
  std::string text;  // .qp source, as submitted
  std::string line;  // rendered submit with a placeholder id
  std::size_t id_at = 0;
  std::int32_t base = -1;  // index into EcoState::bases; -1 for a variant
};

std::string render_submit(const std::string& text, std::size_t& id_at) {
  svc::Request request = submit_request(request_id('r', 0));
  request.problem_text = text;
  std::string line = svc::format_request(request);
  id_at = line.find(request.id);
  return line;
}

struct EcoState {
  std::vector<qbp::PartitionProblem> bases;  // as the server parses them
  /// Bases first, then variants in variant order.  A deque, so the ladder
  /// can append variants without moving designs already scheduled.
  std::deque<EcoDesign> designs;
  std::vector<svc::JobResult> primed;  // one per base
  std::unique_ptr<ServerHarness> harness;
  PhaseCounts prime;
};

/// The design each of `count` requests submits: every fourth request is the
/// next distinct ECO variant (variant indices from `variant0` on), the rest
/// resubmit a base picked from the seed.
std::vector<const EcoDesign*> plan_requests(const EcoState& state,
                                            std::uint64_t seed,
                                            std::int64_t count,
                                            std::int64_t variant0) {
  std::vector<const EcoDesign*> out;
  for (std::int64_t k = 0; k < count; ++k) {
    const std::int64_t design =
        k % 4 == 3 ? kEcoBases + variant0 + k / 4
                   : static_cast<std::int64_t>(
                         mix(seed, static_cast<std::uint64_t>(k)) % kEcoBases);
    out.push_back(&state.designs[static_cast<std::size_t>(design)]);
  }
  return out;
}

/// Run `lines` (one per request, ids already stamped) as an open loop at
/// `rate` over `connections` NDJSON connections.
std::vector<Exchange> open_loop(std::uint16_t port,
                                const std::vector<const EcoDesign*>& designs,
                                std::int64_t first_id, double rate,
                                ServerHarness& harness, bool& stalled) {
  const std::size_t n = designs.size();
  std::vector<Exchange> exchanges(n);
  const std::int32_t connections = std::max(1, host_threads() / 2);
  std::vector<std::unique_ptr<svc::TcpClient>> clients;
  for (std::int32_t c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<svc::TcpClient>());
    if (!clients.back()->connect(port)) return exchanges;  // all unanswered
  }
  std::atomic<std::int64_t> received{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t k = 0; k < n; ++k) {
    exchanges[k].due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(k) / rate));
  }

  // One sender and one receiver per connection: 2 x connections <= nproc.
  std::vector<std::thread> threads;
  for (std::int32_t c = 0; c < connections; ++c) {
    svc::TcpClient* client = clients[static_cast<std::size_t>(c)].get();
    threads.emplace_back([&, c, client] {
      for (std::size_t k = static_cast<std::size_t>(c); k < n;
           k += static_cast<std::size_t>(connections)) {
        std::string line = designs[k]->line;
        const std::string id = request_id('r', first_id + static_cast<std::int64_t>(k));
        line.replace(designs[k]->id_at, id.size(), id);
        std::this_thread::sleep_until(exchanges[k].due);
        exchanges[k].sent = Clock::now();
        if (!client->send_line(line)) return;
      }
    });
    threads.emplace_back([&, c, client] {
      std::string line;
      for (std::size_t k = static_cast<std::size_t>(c); k < n;
           k += static_cast<std::size_t>(connections)) {
        if (!client->read_line(line)) return;
        const auto now = Clock::now();
        // Replies arrive in completion order; match them by id afterwards.
        Value reply;
        std::int64_t slot = -1;
        if (qbp::json::parse(line, reply).ok) {
          slot = id_number(reply.get_string("id")) - first_id;
        }
        if (slot < 0 || slot >= static_cast<std::int64_t>(n) ||
            exchanges[static_cast<std::size_t>(slot)].answered) {
          continue;  // not ours: counted as unanswered below
        }
        Exchange& exchange = exchanges[static_cast<std::size_t>(slot)];
        exchange.received = now;
        exchange.reply = std::move(line);
        exchange.answered = true;
        received.fetch_add(1);
      }
    });
  }
  // Watchdog: a stalled server must fail the run, not hang it.
  const auto give_up =
      exchanges.empty() ? Clock::now()
                        : exchanges.back().due +
                              std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(kReplyGraceS));
  while (received.load() < static_cast<std::int64_t>(n) &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (received.load() < static_cast<std::int64_t>(n)) {
    stalled = true;
    harness.stop();  // closes the connections, unblocking the receivers
  }
  for (std::thread& thread : threads) thread.join();
  return exchanges;
}

/// Decode and check every reply of an eco phase; fills latencies and
/// objective, and counts into `counts` and `tally`.  With `overload_ok`
/// (the SLO ladder drives the server past saturation on purpose) refused or
/// unanswered requests miss the limit but are not program failures; every
/// answer that does arrive is still checked.
void score_eco(const std::vector<Exchange>& exchanges,
               const std::vector<const EcoDesign*>& designs,
               const EcoState& state, Tally& tally, PhaseCounts& counts,
               Latencies& lat, double& objective,
               std::vector<svc::JobResult>* results, bool overload_ok = false) {
  Clock::time_point last = exchanges.empty() ? Clock::now() : exchanges.front().due;
  for (const Exchange& exchange : exchanges) {
    if (exchange.answered) last = std::max(last, exchange.received);
  }
  lat.wall_s = exchanges.empty() ? 0.0 : seconds_between(exchanges.front().due, last);
  for (std::size_t k = 0; k < exchanges.size(); ++k) {
    const Exchange& exchange = exchanges[k];
    ++counts.sent;
    std::string why;
    bool refused = false;
    svc::JobResult result;
    Value reply;
    if (!exchange.answered) {
      why = "no reply";
      refused = true;
    } else if (!qbp::json::parse(exchange.reply, reply).ok ||
               reply.get_string("type") != "result" ||
               !svc::result_from_json(reply, result).ok) {
      why = "not a result: " + exchange.reply.substr(0, 160);
      refused = reply.get_string("type") == "reject";
    } else if (result.status != "ok") {
      why = "status " + result.status + " " + result.reason;
    } else {
      const EcoDesign* design = designs[k];
      if (design->base >= 0) {
        why = check_answer(state.bases[static_cast<std::size_t>(design->base)],
                           result.assignment, result.objective);
      } else if (const auto problem = parse_text(design->text)) {
        why = check_answer(*problem, result.assignment, result.objective);
      } else {
        why = "submitted problem does not parse";
      }
    }
    const double latency_ms =
        why.empty() ? seconds_between(exchange.due, exchange.received) * 1000.0
                    : lat.wall_s * 1000.0;
    lat.ms.push_back(latency_ms);
    if (exchange.sent != Clock::time_point{}) {
      lat.late_ms.push_back(seconds_between(exchange.due, exchange.sent) * 1000.0);
    }
    if (why.empty()) {
      ++counts.succeeded;
      ++lat.answered;
      objective += result.objective;
      const char* answer_class = result.cache_hit    ? "exact"
                                 : result.warm_start ? "warm"
                                                     : "cold";
      counts.by_class[answer_class].push_back(latency_ms);
      if (results != nullptr) results->push_back(std::move(result));
    } else {
      ++counts.failed;
    }
    if (overload_ok && refused) continue;
    tally.record(why.empty() ? why
                             : "request " + std::to_string(k) + ": " + why);
  }
}

/// Render `count` more ECO variants; variant v edits base v % kEcoBases.
void append_variants(EcoState& state, std::uint64_t seed, std::int64_t count) {
  for (std::int64_t k = 0; k < count; ++k) {
    const auto v = static_cast<std::int64_t>(state.designs.size()) - kEcoBases;
    const auto b = static_cast<std::size_t>(v % kEcoBases);
    EcoDesign design;
    design.text = to_text(qbp::make_eco_variant(
        state.bases[b], seed, static_cast<std::int32_t>(v + 1)));
    design.line = render_submit(design.text, design.id_at);
    state.designs.push_back(std::move(design));
  }
}

EcoState make_eco_state(std::uint64_t seed, std::int64_t timed_requests,
                        Tally& tally) {
  EcoState state;
  for (std::int32_t b = 0; b < kEcoBases; ++b) {
    const qbp::PartitionProblem base =
        qbp::make_scaling_problem(kEcoBaseN, mix(seed, 1000 + b));
    EcoDesign design;
    design.text = to_text(base);
    design.line = render_submit(design.text, design.id_at);
    design.base = b;
    state.bases.push_back(*parse_text(design.text));
    state.designs.push_back(std::move(design));
  }
  append_variants(state, seed, (timed_requests + 3) / 4);

  state.harness = std::make_unique<ServerHarness>(server_options());
  // Prime: one cold solve per base, answered before the clock starts.
  std::vector<const EcoDesign*> prime;
  for (std::int32_t b = 0; b < kEcoBases; ++b) {
    prime.push_back(&state.designs[static_cast<std::size_t>(b)]);
  }
  bool stalled = false;
  const auto exchanges = open_loop(state.harness->port(), prime,
                                   /*first_id=*/900000000, /*rate=*/1000.0,
                                   *state.harness, stalled);
  Latencies lat;
  double objective = 0.0;
  score_eco(exchanges, prime, state, tally, state.prime, lat, objective,
            &state.primed);
  return state;
}

void replay_eco_layers(const EcoState& state,
                       const std::vector<const EcoDesign*>& designs,
                       const std::vector<svc::JobResult>& results,
                       Tracer& tracer, Values& layer, Tally& tally) {
  // A private cache holding the primed base solves, as the server's does.
  svc::SolutionCache cache(64);
  const bool validate = qbp::validation_enabled();
  for (std::size_t b = 0; b < state.bases.size() && b < state.primed.size(); ++b) {
    svc::Request request;
    if (!svc::parse_request(state.designs[b].line, request).ok) continue;
    const svc::JobResult& primed = state.primed[b];
    svc::CachedSolve solve;
    solve.solver = primed.solver;
    solve.feasible = primed.feasible;
    solve.objective = primed.objective;
    solve.best_penalized = primed.best_penalized;
    solve.assignment = primed.assignment;
    solve.starts_run = primed.starts_run;
    const qbp::Hash128 spec = svc::spec_fingerprint(request.solver, validate);
    cache.insert(svc::combine_keys(qbp::problem_fingerprint(state.bases[b]), spec),
                 spec, svc::make_digest(state.bases[b]), solve);
  }

  std::int64_t neighbours = 0;
  std::int64_t warm = 0;
  const std::size_t count = std::min(designs.size(), kEcoReplay);
  for (std::size_t k = 0; k < count; ++k) {
    const std::string id = request_id('r', static_cast<std::int64_t>(k));
    svc::Request request;
    {
      const Tracer::Scope span(tracer, "service.protocol.parse_request", id);
      if (!svc::parse_request(designs[k]->line, request).ok) {
        tally.fail("replay: request does not parse");
        continue;
      }
    }
    qbp::PartitionProblem problem;
    {
      const Tracer::Scope span(tracer, "core.problem_io.read_problem", id);
      std::istringstream in(request.problem_text);
      if (!qbp::read_problem(in, problem).ok) {
        tally.fail("replay: problem does not parse");
        continue;
      }
    }
    qbp::Hash128 fingerprint;
    {
      const Tracer::Scope span(tracer, "core.fingerprint.problem_fingerprint", id);
      fingerprint = qbp::problem_fingerprint(problem);
    }
    const qbp::Hash128 spec = svc::spec_fingerprint(request.solver, validate);
    svc::CachedSolve hit;
    bool found = false;
    {
      const Tracer::Scope span(tracer, "service.cache.find_exact", id);
      found = cache.find_exact(svc::combine_keys(fingerprint, spec), hit);
    }
    if (found) continue;
    svc::ProblemDigest digest;
    {
      const Tracer::Scope span(tracer, "service.cache.make_digest", id);
      digest = svc::make_digest(problem);
    }
    svc::SolutionCache::Neighbor neighbour;
    bool near = false;
    {
      const Tracer::Scope span(tracer, "service.cache.find_nearest", id);
      near = cache.find_nearest(
          spec, digest,
          svc::SolutionCache::default_edit_budget(problem.num_components()),
          neighbour);
    }
    if (!near) continue;
    ++neighbours;
    svc::Job job;
    job.id = id;
    job.solver = request.solver;
    job.problem_text = request.problem_text;
    svc::JobResult result;
    {
      const Tracer::Scope span(tracer, "service.job.run_job.warm", id);
      result = svc::run_job(job, &cache);
    }
    if (result.warm_start) ++warm;
    tally.record(result.status != "ok"
                     ? "replay warm job: status " + result.status
                     : check_answer(problem, result.assignment, result.objective));
  }
  for (const svc::JobResult& result : results) {
    const Tracer::Scope span(tracer, "service.protocol.result_to_json", result.id);
    const std::string line = svc::result_to_json(result).dump();
    if (line.empty()) tally.fail("result_to_json produced nothing");
  }

  const auto us = [&](const char* span) {
    return median(tracer.durations_us(span));
  };
  layer["service.protocol.parse_request_us"] = us("service.protocol.parse_request");
  layer["core.problem_io.read_problem_us"] = us("core.problem_io.read_problem");
  layer["core.fingerprint.problem_fingerprint_us"] =
      us("core.fingerprint.problem_fingerprint");
  layer["service.cache.find_exact_us"] = us("service.cache.find_exact");
  layer["service.protocol.result_to_json_us"] = us("service.protocol.result_to_json");
  layer["service.cache.make_digest_us"] = us("service.cache.make_digest");
  layer["service.cache.find_nearest_us"] = us("service.cache.find_nearest");
  layer["service.job.run_job_ms.warm"] = us("service.job.run_job.warm") / 1000.0;
  layer["service.cache.warm_accept_ratio"] =
      neighbours == 0 ? 0.0
                      : static_cast<double>(warm) / static_cast<double>(neighbours);
}

/// Highest ladder rate whose p99 meets kSloLimitMs with no growing backlog
/// (the last quarter's median no worse than twice the first quarter's plus
/// a millisecond) and no failed request.
double slo_ladder(EcoState& state, std::uint64_t seed, std::int64_t variant0,
                  std::int64_t first_id, Tally& tally, Value& detail) {
  double best = 0.0;
  Value rungs = Value::array();
  for (const double rate : kLadderRates) {
    const auto count = static_cast<std::int64_t>(rate * kLadderStepS);
    // Fresh variants per rung, rendered before the rung starts.
    append_variants(state, seed,
                    kEcoBases + variant0 + (count + 3) / 4 -
                        static_cast<std::int64_t>(state.designs.size()));
    const auto designs = plan_requests(state, seed, count, variant0);
    variant0 += (count + 3) / 4;
    bool stalled = false;
    const auto exchanges = open_loop(state.harness->port(), designs, first_id,
                                     rate, *state.harness, stalled);
    first_id += count;
    PhaseCounts counts;
    Latencies lat;
    double objective = 0.0;
    score_eco(exchanges, designs, state, tally, counts, lat, objective,
              nullptr, /*overload_ok=*/true);
    if (lat.ms.empty()) break;
    const std::size_t quarter = std::max<std::size_t>(1, lat.ms.size() / 4);
    const double first_q = median(std::vector<double>(lat.ms.begin(), lat.ms.begin() + quarter));
    const double last_q = median(std::vector<double>(lat.ms.end() - quarter, lat.ms.end()));
    const double p99 = percentile(lat.ms, 99.0);
    const bool pass = counts.failed == 0 && !stalled && p99 <= kSloLimitMs &&
                      last_q <= 2.0 * first_q + 1.0;
    Value rung = counts.to_json();
    rung.set("rate", rate);
    rung.set("p99_ms", p99);
    rung.set("pass", pass);
    rungs.push_back(std::move(rung));
    if (!pass || stalled) break;
    best = rate;
  }
  detail.set("ladder", std::move(rungs));
  return best;
}

// -------------------------------------------------------------- serve-cold

struct ColdDesign {
  std::shared_ptr<const qbp::PartitionProblem> problem;
  std::string frame;  // complete binary submit frame
};

struct ColdState {
  std::vector<ColdDesign> designs;
  std::unique_ptr<ServerHarness> harness;
};

ColdDesign make_cold_design(std::uint64_t seed, std::int64_t k) {
  const std::uint64_t h = mix(seed, static_cast<std::uint64_t>(k));
  // Sizes cycle so every batch holds the same size mix (a steadier sum).
  const std::int32_t n =
      kColdSizes[static_cast<std::size_t>(k / 4) % std::size(kColdSizes)];
  // One design in four comes from the reducible (presolve) family.
  auto problem = std::make_shared<const qbp::PartitionProblem>(
      k % 4 == 3 ? qbp::make_presolve_problem(n, h >> 8)
                 : qbp::make_scaling_problem(n, h >> 8));
  svc::Request request = submit_request(request_id('c', k));
  request.problem = problem;
  ColdDesign design;
  design.problem = std::move(problem);
  svc::encode_request_frame(request, design.frame);
  return design;
}

/// Closed loop: one connection (and thread) per core, each sending its next
/// design as soon as the previous answer arrived.  Requests [first, last)
/// of the batch; spans only for the traced stretch.
void closed_loop(const ColdState& state, std::size_t first, std::size_t last,
                 std::vector<Exchange>& exchanges, Tracer& tracer) {
  std::atomic<std::size_t> next{first};
  std::vector<std::thread> threads;
  const std::uint16_t port = state.harness->port();
  for (std::int32_t c = 0; c < host_threads(); ++c) {
    threads.emplace_back([&] {
      svc::TcpClient client;
      if (!client.connect(port)) return;
      for (std::size_t k = next.fetch_add(1); k < last; k = next.fetch_add(1)) {
        Exchange& exchange = exchanges[k];
        exchange.sent = Clock::now();
        exchange.due = exchange.sent;
        if (!client.send_bytes(state.designs[k].frame) ||
            !client.read_frame(exchange.frame_type, exchange.reply)) {
          return;
        }
        exchange.received = Clock::now();
        exchange.answered = true;
        tracer.record("loadgen.request", request_id('c', static_cast<std::int64_t>(k)),
                      exchange.sent, exchange.received);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

void score_cold(const ColdState& state, const std::vector<Exchange>& exchanges,
                std::size_t first, std::size_t last, Tally& tally,
                PhaseCounts& counts, Latencies& lat, double& objective,
                double& solve_s) {
  Clock::time_point begin = Clock::time_point::max();
  Clock::time_point end = Clock::time_point::min();
  for (std::size_t k = first; k < last; ++k) {
    if (exchanges[k].sent != Clock::time_point{}) begin = std::min(begin, exchanges[k].sent);
    if (exchanges[k].answered) end = std::max(end, exchanges[k].received);
  }
  lat.wall_s = end > begin ? seconds_between(begin, end) : 0.0;
  for (std::size_t k = first; k < last; ++k) {
    const Exchange& exchange = exchanges[k];
    ++counts.sent;
    std::string why;
    svc::JobResult result;
    std::string error;
    if (!exchange.answered) {
      why = "no reply";
    } else if (static_cast<svc::WireMsg>(exchange.frame_type) != svc::WireMsg::kResult ||
               !svc::decode_result(exchange.reply, result, error)) {
      why = "not a result frame (type " + std::to_string(exchange.frame_type) +
            ") " + error;
    } else if (result.status != "ok") {
      why = "status " + result.status + " " + result.reason;
    } else if (result.id != request_id('c', static_cast<std::int64_t>(k))) {
      why = "reply for " + result.id + " on request " + std::to_string(k);
    } else {
      why = check_answer(*state.designs[k].problem, result.assignment,
                         result.objective);
    }
    lat.ms.push_back(why.empty()
                         ? seconds_between(exchange.sent, exchange.received) * 1000.0
                         : lat.wall_s * 1000.0);
    if (why.empty()) {
      ++counts.succeeded;
      ++lat.answered;
      objective += result.objective;
      solve_s += result.solve_s;
    } else {
      ++counts.failed;
    }
    tally.record(why.empty() ? why
                             : "design " + std::to_string(k) + " (N=" +
                                   std::to_string(state.designs[k].problem->num_components()) +
                                   "): " + why);
  }
}

void replay_cold_layers(const ColdState& state, Tracer& tracer, Values& layer,
                        Tally& tally) {
  svc::SolutionCache cache(kColdReplay / 2);  // small: inserts evict
  double removed = 0.0;
  const std::size_t count = std::min(state.designs.size(), kColdReplay);
  for (std::size_t k = 0; k < count; ++k) {
    const std::string id = request_id('c', static_cast<std::int64_t>(k));
    qbp::wire::FrameView frame;
    std::string error;
    svc::Request request;
    bool decoded = false;
    if (qbp::wire::peek_frame(state.designs[k].frame, frame, error) ==
        qbp::wire::FrameStatus::kFrame) {
      const Tracer::Scope span(tracer, "service.wire.decode_submit", id);
      decoded = svc::decode_submit(frame.payload, request, error);
    }
    if (!decoded || request.problem == nullptr) {
      tally.fail("replay: submit frame does not decode: " + error);
      continue;
    }
    const qbp::PartitionProblem& problem = *request.problem;
    {
      const Tracer::Scope span(tracer, "core.presolve.presolve", id);
      const qbp::ReducedProblem reduced = qbp::presolve(problem.normalized());
      removed += static_cast<double>(reduced.stats.components_removed) /
                 static_cast<double>(problem.num_components());
    }
    qbp::engine::PipelineOptions options;
    options.portfolio.seed = request.solver.seed;
    options.portfolio.threads = 1;
    options.portfolio.keep_start_results = false;
    qbp::BurkardOptions burkard;
    burkard.iterations = request.solver.iterations;
    qbp::engine::PipelineResult run;
    {
      const Tracer::Scope span(tracer, "engine.pipeline.run", id);
      const qbp::engine::SolvePipeline pipeline(problem, options);
      run = pipeline.run(qbp::engine::BurkardSolver(burkard), request.solver.starts);
    }
    const qbp::engine::SolverResult& best = run.portfolio.best;
    if (!best.found_feasible) {
      tally.fail("replay pipeline on design " + std::to_string(k) + ": infeasible");
      continue;
    }
    tally.record(check_answer(problem, best.best_feasible.raw(),
                              best.best_feasible_objective));
    svc::CachedSolve solve;
    solve.feasible = true;
    solve.objective = best.best_feasible_objective;
    solve.assignment.assign(best.best_feasible.raw().begin(),
                            best.best_feasible.raw().end());
    const qbp::Hash128 spec =
        svc::spec_fingerprint(request.solver, qbp::validation_enabled());
    const qbp::Hash128 key =
        svc::combine_keys(qbp::problem_fingerprint(problem), spec);
    svc::ProblemDigest digest = svc::make_digest(problem);
    const Tracer::Scope span(tracer, "service.cache.insert", id);
    cache.insert(key, spec, std::move(digest), std::move(solve));
  }
  layer["service.wire.decode_submit_us"] =
      median(tracer.durations_us("service.wire.decode_submit"));
  layer["core.presolve.presolve_ms"] =
      median(tracer.durations_us("core.presolve.presolve")) / 1000.0;
  layer["core.presolve.removed_frac"] =
      count == 0 ? 0.0 : removed / static_cast<double>(count);
  layer["engine.pipeline.run_s"] =
      median(tracer.durations_us("engine.pipeline.run")) / 1e6;
  layer["service.cache.insert_us"] =
      median(tracer.durations_us("service.cache.insert"));
}

/// End-to-end latency figures of one phase.  The tail is taken per window
/// of consecutive requests (the rule of tail_of inside each) and reported
/// as the median over `windows`: on a shared host a stall of a few
/// milliseconds hits a burst of consecutive open-loop requests, and one
/// such burst should not decide the run's tail.
void latency_metrics(const Latencies& lat, std::int64_t results,
                     std::size_t windows, Values& e2e, Values& layer,
                     Value& detail) {
  std::vector<double> tails;
  Tail tail;
  const std::size_t per_window = lat.ms.size() / windows;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = lat.ms.begin() + static_cast<std::ptrdiff_t>(w * per_window);
    const auto last = w + 1 == windows
                          ? lat.ms.end()
                          : first + static_cast<std::ptrdiff_t>(per_window);
    tail = tail_of(std::vector<double>(first, last));
    tails.push_back(tail.value);
  }
  e2e["wall_s"] = lat.wall_s;
  e2e["jobs_per_s"] =
      lat.wall_s > 0.0 ? static_cast<double>(results) / lat.wall_s : 0.0;
  e2e["latency_p50_ms"] = median(lat.ms);
  e2e["latency_tail_ms"] = median(tails);
  detail.set("latency_tail_windows", static_cast<std::int64_t>(windows));
  e2e["peak_rss_mib"] = peak_rss_mib();
  layer["latency_tail_pct"] = tail.pct;
  layer["latency_samples"] = static_cast<double>(tail.samples);
  detail.set("latency_tail_pct", tail.pct);
  detail.set("latency_samples", static_cast<std::int64_t>(tail.samples));
}

/// SLO ladder plus the layer-by-layer replay, after an eco timed phase that
/// sent `designs` and got `results` back.
void eco_ladder_and_replay(EcoState& state, std::uint64_t seed,
                           const std::vector<const EcoDesign*>& designs,
                           const std::vector<svc::JobResult>& results,
                           Tracer& tracer, RunOutput& out, Value& detail) {
  const auto variants_used = static_cast<std::int64_t>(designs.size() + 3) / 4;
  out.per_layer["slo_jobs_per_s"] = slo_ladder(
      state, seed, variants_used, /*first_id=*/100000000, out.tally, detail);
  replay_eco_layers(state, designs, results, tracer, out.per_layer, out.tally);
}

/// The serve-eco layers for serve-cold's traced run: a short ECO stretch
/// (kEcoProbeRequests at kEcoRate) against a primed server of its own,
/// then the ladder and the replay.  serve-eco's end-to-end tail swings
/// too much with the host's load to be a bounded workload of its own, so
/// this is where the traced runs measure its layers.
void eco_probe(std::uint64_t seed, Tracer& tracer, RunOutput& out,
               Value& detail) {
  EcoState state = make_eco_state(seed, kEcoProbeRequests, out.tally);
  const auto designs = plan_requests(state, seed, kEcoProbeRequests, 0);
  bool stalled = false;
  const auto exchanges = open_loop(state.harness->port(), designs, 0,
                                   kEcoRate, *state.harness, stalled);
  PhaseCounts counts;
  Latencies lat;
  double objective = 0.0;
  std::vector<svc::JobResult> results;
  score_eco(exchanges, designs, state, out.tally, counts, lat, objective,
            &results);
  out.per_layer["loadgen.late_ms_p99"] = percentile(lat.late_ms, 99.0);
  Value probe = counts.to_json();
  if (stalled) {
    out.tally.fail("eco probe: server stopped answering");
  } else {
    eco_ladder_and_replay(state, seed, designs, results, tracer, out, probe);
  }
  detail.set("eco_probe", std::move(probe));
  state.harness->stop();
}

}  // namespace

void run_serve_eco(const Options& options, Tracer& tracer, RunOutput& out) {
  const auto timed = static_cast<std::int64_t>(kEcoRate * options.seconds);
  EcoState state;
  const double setup_s = median_setup_seconds(options.trace ? 1 : kSetupReps, [&](bool keep) {
    Tally prime_tally;
    EcoState fresh = make_eco_state(options.seed, timed, prime_tally);
    if (!keep) return;
    out.tally.absorb(prime_tally, "prime: ");
    state = std::move(fresh);
  });

  Value detail = Value::object();
  Value phases = Value::object();
  phases.set("prime", state.prime.to_json());

  // Timed phase.  A traced run splits it: the first half untraced, the
  // second half with a span per request, so the two medians give the
  // tracing overhead.
  const std::vector<const EcoDesign*> designs =
      plan_requests(state, options.seed, timed, /*variant0=*/0);
  const std::size_t split = options.trace ? designs.size() / 2 : designs.size();
  bool stalled = false;
  PhaseCounts counts;
  Latencies lat;
  double objective = 0.0;
  std::vector<svc::JobResult> results;
  const std::vector<const EcoDesign*> untraced(designs.begin(),
                                               designs.begin() + static_cast<std::ptrdiff_t>(split));
  const auto exchanges = open_loop(state.harness->port(), untraced, 0,
                                   kEcoRate, *state.harness, stalled);
  score_eco(exchanges, untraced, state, out.tally, counts, lat, objective,
            &results);
  phases.set("timed", counts.to_json());
  latency_metrics(lat, lat.answered, kEcoTailWindows, out.end_to_end,
                  out.per_layer, detail);
  out.end_to_end["setup_s"] = setup_s;
  out.end_to_end["objective"] = objective;
  out.per_layer["loadgen.late_ms_p99"] = percentile(lat.late_ms, 99.0);
  detail.set("late_ms_p99", percentile(lat.late_ms, 99.0));
  detail.set("rate", kEcoRate);
  detail.set("connections", std::max(1, host_threads() / 2));

  if (options.trace && !stalled) {
    const std::vector<const EcoDesign*> traced(
        designs.begin() + static_cast<std::ptrdiff_t>(split), designs.end());
    const auto traced_exchanges =
        open_loop(state.harness->port(), traced, static_cast<std::int64_t>(split),
                  kEcoRate, *state.harness, stalled);
    for (std::size_t k = 0; k < traced_exchanges.size(); ++k) {
      const Exchange& exchange = traced_exchanges[k];
      if (exchange.answered) {
        tracer.record("loadgen.request",
                      request_id('r', static_cast<std::int64_t>(split + k)),
                      exchange.due, exchange.received);
      }
    }
    PhaseCounts traced_counts;
    Latencies traced_lat;
    double traced_objective = 0.0;
    score_eco(traced_exchanges, traced, state, out.tally, traced_counts,
              traced_lat, traced_objective, &results);
    phases.set("timed_traced", traced_counts.to_json());
    out.per_layer["trace.overhead_ms"] = median(traced_lat.ms) - median(lat.ms);

    stats_metrics(fetch_stats(state.harness->port()), out.per_layer);
    eco_ladder_and_replay(state, options.seed, designs, results, tracer, out,
                          detail);
  }
  if (stalled) out.tally.fail("server stopped answering");
  detail.set("phases", std::move(phases));
  out.detail.set("serve_eco", std::move(detail));
  state.harness->stop();
}

void run_serve_cold(const Options& options, Tracer& tracer, RunOutput& out) {
  const auto batch = static_cast<std::size_t>(
      std::max(8.0, kColdJobsPerSecond * options.seconds));
  ColdState state;
  const double setup_s = median_setup_seconds(options.trace ? 1 : kSetupReps, [&](bool keep) {
    ColdState fresh;
    for (std::size_t k = 0; k < batch; ++k) {
      fresh.designs.push_back(
          make_cold_design(options.seed, static_cast<std::int64_t>(k)));
    }
    fresh.harness = std::make_unique<ServerHarness>(server_options());
    if (keep) state = std::move(fresh);
  });

  std::vector<Exchange> exchanges(batch);
  Tracer off(false);
  const std::size_t split = options.trace ? batch / 2 : batch;
  closed_loop(state, 0, split, exchanges, off);

  Value detail = Value::object();
  Value phases = Value::object();
  PhaseCounts counts;
  Latencies lat;
  double objective = 0.0;
  double solve_s = 0.0;
  score_cold(state, exchanges, 0, split, out.tally, counts, lat, objective,
             solve_s);
  phases.set("timed", counts.to_json());
  latency_metrics(lat, lat.answered, /*windows=*/1, out.end_to_end,
                  out.per_layer, detail);
  out.end_to_end["setup_s"] = setup_s;
  out.end_to_end["objective"] = objective;
  out.per_layer["flat_s"] = solve_s;
  detail.set("designs", static_cast<std::int64_t>(batch));
  detail.set("connections", host_threads());

  if (options.trace) {
    closed_loop(state, split, batch, exchanges, tracer);
    PhaseCounts traced_counts;
    Latencies traced_lat;
    double traced_objective = 0.0;
    double traced_solve_s = 0.0;
    score_cold(state, exchanges, split, batch, out.tally, traced_counts,
               traced_lat, traced_objective, traced_solve_s);
    phases.set("timed_traced", traced_counts.to_json());
    out.per_layer["trace.overhead_ms"] = median(traced_lat.ms) - median(lat.ms);
    stats_metrics(fetch_stats(state.harness->port()), out.per_layer);
    replay_cold_layers(state, tracer, out.per_layer, out.tally);
    state.harness->stop();
    eco_probe(options.seed, tracer, out, detail);
  }
  detail.set("phases", std::move(phases));
  out.detail.set("serve_cold", std::move(detail));
  state.harness->stop();
}

}  // namespace perfbench
