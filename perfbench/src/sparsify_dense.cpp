// Workload sparsify-dense: independent file -> sparsifier -> file jobs on a
// log-uniformly weighted complete graph K_2000 (~2.0M edges). Each job is
// graph::load_binary, parallel_sparsify (practical preset, eps = 1, rho = 8)
// and save_binary. Stresses the graph, spanner and sparsify layers; never
// touches the solver, the server or the dynamic tower.
//
// Set-up: generate the input, write it and run the first job (median of
// kSetups).
// End-to-end: one job's wall time (median; p90 printed), jobs per second at
// that median, output edges over input edges, peak RSS.
// Traced: spans around load / sparsify / save in every job, then each
// layer's public calls on the same input -- CSR build, t_bundle at the first
// round's t, one parallel_sample round, the 1-thread sparsify reference.
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/io_binary.hpp"
#include "spanner/bundle.hpp"
#include "sparsify/presets.hpp"
#include "sparsify/sample.hpp"
#include "sparsify/sparsify.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/work_counter.hpp"

namespace perfbench {

namespace {

using spar::graph::Graph;
namespace sp = spar::sparsify;

constexpr spar::graph::Vertex kVertices = 2000;
constexpr double kLogWeightRange = 2.0;
constexpr double kEpsilon = 1.0;
constexpr double kRho = 8.0;
constexpr std::size_t kPracticalT = 3;  // make_sparsify_options' default width
constexpr int kSetups = 3;
constexpr std::size_t kMinJobs = 3;

sp::SparsifyOptions job_options(std::uint64_t seed, std::uint64_t job,
                                spar::support::WorkCounter* work) {
  sp::SparsifyOptions opt = sp::make_sparsify_options(
      sp::Preset::kPractical, kEpsilon, kRho, spar::support::mix64(seed, job), kPracticalT);
  opt.work = work;
  return opt;
}

/// The check must reject a sparsifier of a dumbbell (two K_150 joined by one
/// edge) whose bridge was removed, and accept the same sparsifier intact.
bool self_test(std::uint64_t seed) {
  constexpr spar::graph::Vertex kHalf = 150;
  const Graph g = spar::graph::dumbbell(kHalf);
  const Graph h = sp::parallel_sparsify(g, job_options(seed, 0, nullptr)).sparsifier;
  if (!check_sparsifier(g, h, kEpsilon, seed).empty()) return false;
  Graph cut(h.num_vertices());
  bool removed = false;
  for (const spar::graph::Edge& e : h.edges()) {
    if ((e.u < kHalf) != (e.v < kHalf)) {
      removed = true;
      continue;
    }
    cut.add_edge(e.u, e.v, e.w);
  }
  return removed && !check_sparsifier(g, cut, kEpsilon, seed).empty();
}

}  // namespace

void run_sparsify_dense(const Config& cfg, Tracer& tracer, Report& report) {
  const std::string input = cfg.workdir + "/k2000.spb";
  const std::string output = cfg.workdir + "/k2000.sparse.spb";

  spar::support::WorkCounter work;
  std::vector<double> job_s, keep, work_units;
  std::size_t rounds = 0;
  double per_round_eps = kEpsilon;
  Graph g;  // the input, as the last job loaded it
  // One job: load, sparsify, save; then read the output back and check it.
  // Returns the job's wall time.
  const auto run_job = [&](std::uint64_t job) {
    work.reset();
    const Clock::time_point t0 = Clock::now();
    Tracer::Span span(tracer, "job");
    {
      Tracer::Span s(tracer, "graph.load");
      g = spar::graph::load_binary(input);
    }
    sp::SparsifyResult r;
    {
      Tracer::Span s(tracer, "sparsify.parallel_sparsify");
      r = sp::parallel_sparsify(g, job_options(cfg.seed, job, cfg.trace ? &work : nullptr));
    }
    {
      Tracer::Span s(tracer, "graph.save");
      spar::graph::save_binary(output, r.sparsifier);
    }
    span.close();
    const double elapsed = seconds_between(t0, Clock::now());

    const Graph h = spar::graph::load_binary(output);
    report.record(check_sparsifier(g, h, kEpsilon, spar::support::mix64(cfg.seed, ~job)));
    keep.push_back(static_cast<double>(h.num_edges()) / static_cast<double>(g.num_edges()));
    work_units.push_back(static_cast<double>(work.total()));
    rounds = r.rounds.size();
    per_round_eps = r.per_round_epsilon;
    return elapsed;
  };

  // Set-up: from nothing to the first output file -- generate the input,
  // write it, run one job. The set-up jobs also warm the thread pool and the
  // page cache for the timed jobs.
  std::vector<double> setup_s;
  std::uint64_t job = 0;
  for (; job < (cfg.trace ? 1 : kSetups); ++job) {
    const Clock::time_point t0 = Clock::now();
    const Graph input_graph = spar::graph::randomize_weights(
        spar::graph::complete_graph(kVertices), kLogWeightRange, cfg.seed);
    spar::graph::save_binary(input, input_graph);
    const double write_s = seconds_between(t0, Clock::now());
    setup_s.push_back(write_s + run_job(job));
  }

  const Clock::time_point deadline = seconds_from_now(cfg.seconds);
  for (std::size_t timed = 0; timed < kMinJobs || Clock::now() < deadline; ++timed)
    job_s.push_back(run_job(job++));
  report.self_test_ok = self_test(cfg.seed);

  const double job_p50 = median(job_s);

  if (!cfg.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("op_p50_ms", job_p50 * 1e3, "ms");
    report.metric("ops_per_s", 1.0 / job_p50, "1/s");
    report.metric("keep_ratio", median(keep), "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.label("sparsify_job_s", job_p50, "s");
    report.label("sparsify_job_p90_s", percentile(job_s, 0.9), "s");
    report.label("jobs", static_cast<double>(job_s.size()), "count");
    report.label("keep_ratio", median(keep), "ratio");
    report.label("peak_rss_mb", peak_rss_mb(), "MB");
    report.label("setup_s", median(setup_s), "s");
    return;
  }

  // Per-layer probes: each layer's public call, timed on the same input.
  std::vector<double> csr_s;
  for (int i = 0; i < 3; ++i) {
    Tracer::Span s(tracer, "graph.csr_build");
    const spar::graph::CSRGraph csr(g);
    csr_s.push_back(s.close());
  }
  spar::spanner::BundleOptions bopt;
  bopt.t = kPracticalT;
  bopt.seed = spar::support::mix64(cfg.seed, 1);
  std::size_t bundle_edges = 0;
  double bundle_s = 0.0;
  {
    Tracer::Span s(tracer, "spanner.t_bundle");
    bundle_edges = spar::spanner::t_bundle(g, bopt).bundle_edge_count;
    bundle_s = s.close();
  }
  const sp::SparsifyOptions first = job_options(cfg.seed, 1, nullptr);
  double round1_s = 0.0;
  {
    Tracer::Span s(tracer, "sparsify.parallel_sample");
    const sp::SampleResult r = sp::parallel_sample(
        g, sp::make_sample_options(sp::Preset::kPractical, per_round_eps,
                                   spar::support::mix64(first.seed, 1), kPracticalT));
    round1_s = s.close();
  }
  double threads1_s = 0.0;
  {
    const spar::support::par::ThreadLimit one(1);
    Tracer::Span s(tracer, "sparsify.parallel_sparsify_1thread");
    const sp::SparsifyResult r = sp::parallel_sparsify(g, first);
    threads1_s = s.close();
  }
  const double total_s = tracer.median_s("sparsify.parallel_sparsify");

  report.metric("trace.op_p50_ms", job_p50 * 1e3, "ms");
  report.metric("graph.load_s", tracer.median_s("graph.load"), "s");
  report.metric("graph.csr_build_s", median(csr_s), "s");
  report.metric("graph.save_s", tracer.median_s("graph.save"), "s");
  report.metric("spanner.bundle_s", bundle_s, "s");
  report.metric("spanner.bundle_edges", static_cast<double>(bundle_edges), "count");
  report.metric("sparsify.round1_s", round1_s, "s");
  report.metric("sparsify.round1_self_s", round1_s - bundle_s, "s");
  report.metric("sparsify.total_s", total_s, "s");
  report.metric("sparsify.rounds", static_cast<double>(rounds), "count");
  report.metric("sparsify.work", median(work_units), "count");
  report.metric("sparsify.threads1_s", threads1_s, "s");
  report.metric("sparsify.speedup", threads1_s / total_s, "x");
}

}  // namespace perfbench
