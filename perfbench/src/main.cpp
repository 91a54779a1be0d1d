// perfbench: the qbpart benchmark program.
//
//   perfbench --workload solve|serve-eco|serve-cold --seed N --seconds S
//             --trace 0|1 [--trace-out spans.json]
//
// Generates the workload's inputs from --seed, sets up (timed as setup_s),
// measures for about --seconds, re-validates every answer, and prints a
// detail JSON line followed by the result line
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// run also records spans and profiler phases and the metrics are the
// per-layer set.  Exit status 0 only when every answer passed the check.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common.hpp"
#include "util/log.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "solve|serve-eco|serve-cold --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value after a flag");
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string_view(value) == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  decltype(&perfbench::run_solve) run = nullptr;
  if (options.workload == "solve") run = perfbench::run_solve;
  if (options.workload == "serve-eco") run = perfbench::run_serve_eco;
  if (options.workload == "serve-cold") run = perfbench::run_serve_cold;
  if (run == nullptr) return usage("unknown --workload");

  qbp::log::set_level(qbp::log::Level::kError);

  // The gate checks itself first: a check that cannot fail proves nothing.
  if (const std::string why = perfbench::self_test_check(); !why.empty()) {
    std::fprintf(stderr, "perfbench: output-check self-test failed: %s\n",
                 why.c_str());
    return 1;
  }

  perfbench::Tracer tracer(options.trace);
  perfbench::RunOutput out;
  run(options, tracer, out);
  // failed_frac is 0 on a healthy run, which rules it out as a bounded
  // end-to-end metric; it rides in the per-layer set and the detail line.
  const double failed_frac =
      out.tally.attempted() == 0
          ? 1.0
          : static_cast<double>(out.tally.failed()) /
                static_cast<double>(out.tally.attempted());
  out.per_layer["failed_frac"] = failed_frac;
  out.detail.set("failed_frac", failed_frac);

  if (tracer.enabled() && !options.trace_out.empty() &&
      !tracer.write(options.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_out.c_str());
  }

  const auto specs = options.trace ? perfbench::per_layer_metrics()
                                   : perfbench::end_to_end_metrics();
  const perfbench::Values& values =
      options.trace ? out.per_layer : out.end_to_end;
  std::vector<std::string> missing;
  qbp::json::Value metrics = perfbench::render_metrics(specs, values, missing);
  std::fprintf(stderr, "%s (seed %llu, %s):\n", options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               options.trace ? "traced" : "untraced");
  for (const perfbench::MetricSpec& spec : specs) {
    const auto found = values.find(spec.name);
    std::fprintf(stderr, "  %-42s %14.6g %s\n", spec.name,
                 found == values.end() ? 0.0 : found->second, spec.unit);
  }
  // An end-to-end metric a workload forgot is a benchmark bug, not a 0.
  if (!options.trace && !missing.empty()) {
    for (const std::string& name : missing) {
      out.tally.fail("end-to-end metric " + name + " was not measured");
    }
  }
  for (const std::string& reason : out.tally.reasons()) {
    std::fprintf(stderr, "  FAILED: %s\n", reason.c_str());
  }

  out.detail.set("host", perfbench::host_json());
  out.detail.set("spans", static_cast<std::int64_t>(tracer.size()));
  qbp::json::Value detail = qbp::json::Value::object();
  detail.set("detail", std::move(out.detail));
  std::printf("%s\n", detail.dump().c_str());

  const bool correct = out.tally.failed() == 0 && out.tally.attempted() > 0;
  qbp::json::Value result = qbp::json::Value::object();
  result.set("correct", correct);
  result.set("attempted", out.tally.attempted());
  result.set("failed", out.tally.failed());
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
