// spar_perf: one workload of the libspar benchmark, in one process.
//
//   spar_perf --workload <sparsify-dense|solve-grid|dynamic-turnstile>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints one JSON object as its last line of standard output:
//   {"correct":..,"attempted":..,"failed":..,"self_test_ok":..,
//    "metrics":{..},"named":{..},"failures":[..]}
// run.py reads it. Progress and diagnostics go to standard error.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "support/parallel.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_metrics(const std::vector<perfbench::Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i ? "," : "") << json_string(metrics[i].name) << ":{\"value\":" << v
       << ",\"unit\":" << json_string(metrics[i].unit) << "}";
  }
  os << "}";
  return os.str();
}

int usage(const char* why) {
  std::fprintf(stderr,
               "spar_perf: %s\nusage: spar_perf --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i], value = argv[i + 1];
      if (key == "--workload") cfg.workload = value;
      else if (key == "--seed") cfg.seed = std::stoull(value);
      else if (key == "--seconds") cfg.seconds = std::stod(value);
      else if (key == "--trace") cfg.trace = value == "1";
      else if (key == "--workdir") cfg.workdir = value;
      else return usage(("unknown option " + key).c_str());
    }
  } catch (const std::exception&) {
    return usage("malformed option value");
  }
  if (cfg.workdir.empty() || !(cfg.seconds > 0.0)) return usage("missing option");

  using Run = void (*)(const perfbench::Config&, perfbench::Tracer&, perfbench::Report&);
  Run run = nullptr;
  if (cfg.workload == "sparsify-dense") run = perfbench::run_sparsify_dense;
  else if (cfg.workload == "solve-grid") run = perfbench::run_solve_grid;
  else if (cfg.workload == "dynamic-turnstile") run = perfbench::run_dynamic_turnstile;
  else return usage(("unknown workload " + cfg.workload).c_str());

  std::fprintf(stderr, "spar_perf: %s seed=%llu seconds=%g trace=%d threads=%d\n",
               cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
               cfg.seconds, cfg.trace ? 1 : 0, spar::support::par::max_threads());

  perfbench::Tracer tracer(cfg.trace);
  perfbench::Report report;
  try {
    run(cfg, tracer, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spar_perf: %s aborted: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }
  if (cfg.trace) tracer.write(cfg.workdir + "/spans.jsonl");

  std::ostringstream failures;
  for (std::size_t i = 0; i < report.failures.size(); ++i)
    failures << (i ? "," : "") << json_string(report.failures[i]);
  const bool correct = report.failed == 0 && report.attempted > 0 && report.self_test_ok;
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << report.attempted << ",\"failed\":" << report.failed
            << ",\"self_test_ok\":" << (report.self_test_ok ? "true" : "false")
            << ",\"metrics\":" << json_metrics(report.metrics)
            << ",\"named\":" << json_metrics(report.named) << ",\"failures\":["
            << failures.str() << "]}" << std::endl;
  return 0;
}
