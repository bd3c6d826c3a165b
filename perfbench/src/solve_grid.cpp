// Workload solve-grid: an in-process server::SolverService (default
// ServiceOptions) holding one log-uniformly weighted 32x32 grid, driven by a
// closed loop of kClients clients. Each client submits a fresh mean-free
// right-hand side, waits for the reply, checks it, then submits the next.
// Stresses the solver (chain build, PCG, chain apply), linalg and server
// layers; sparsify runs only inside chain levels; the dynamic tower is never
// touched.
//
// Set-up: put_graph up to the first reply, cold chain build included
// (median of kSetups fresh services).
// End-to-end: submit-to-reply latency (median; p90 printed), replies per
// second, the chain's stored nonzeros over the input's, peak RSS.
// Traced: a span around every request, the server's own queue/solve/batch
// figures, then the solver and linalg public calls on the same matrix --
// InverseChain build, solve_sdd_multi and InverseChain::apply on a block as
// wide as the mean batch, SDDMatrix::apply, and the Jacobi-PCG reference.
#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "graph/generators.hpp"
#include "linalg/multivector.hpp"
#include "linalg/vector_ops.hpp"
#include "server/service.hpp"
#include "solver/chain.hpp"
#include "solver/solver.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using spar::linalg::Vector;
using spar::server::SolveResult;
using spar::server::SolverService;

constexpr int kClients = 4;
constexpr int kSetups = 3;
constexpr std::uint64_t kSampleEvery = 16;  // replies per bit-identity sample
constexpr std::size_t kRateChunk = 32;      // replies per throughput sample
const std::string kGraphName = "grid";

Vector make_rhs(std::size_t n, std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  spar::support::Rng rng(spar::support::mix64(spar::support::mix64(seed, stream), i));
  Vector b(n);
  for (double& v : b) v = rng.normal();
  spar::linalg::remove_mean(b);
  return b;
}

/// Submit one right-hand side and block until its reply.
SolveResult solve_once(SolverService& svc, Vector b) {
  std::promise<SolveResult> promise;
  std::future<SolveResult> reply = promise.get_future();
  svc.submit(kGraphName, std::move(b),
             [&promise](SolveResult r) { promise.set_value(std::move(r)); });
  return reply.get();
}

std::string check_reply(const SolveResult& r, const spar::solver::SDDMatrix& m,
                        const Vector& b, double tolerance) {
  if (!r.ok) return "reply error: " + r.error;
  if (!r.converged) return "reply did not converge";
  return check_residual(m, b, r.solution, tolerance);
}

struct Reply {
  double latency_s = 0.0;
  double done_s = 0.0;  ///< reply time since the loop started
  SolveResult result;
  Vector rhs;  ///< kept for the bit-identity sample only
  std::string verdict;
};

}  // namespace

void run_solve_grid(const Config& cfg, Tracer& tracer, Report& report) {
  // One fixed grid, as a service holds one resident graph; the seed drives
  // the right-hand-side stream.
  const spar::graph::Graph grid = spar::graph::generate_spec("wgrid:32x32");
  const std::size_t n = grid.num_vertices();
  const spar::server::ServiceOptions options{};
  // The service builds its matrix and chain the same way (ChainRegistry).
  const spar::solver::SDDMatrix matrix(grid);

  // The reference for the coalescing contract: a batched reply equals
  // solve_sdd on the same chain, bit for bit. Chain builds are
  // deterministic, so the chain built here from the same matrix with the
  // registry's options is the service's chain.
  spar::solver::SolveOptions sopt;
  sopt.tolerance = options.tolerance;
  sopt.max_iterations = options.max_iterations;
  sopt.chain = options.registry.chain;
  double build_s = 0.0;
  std::unique_ptr<spar::solver::InverseChain> chain;
  {
    Tracer::Span s(tracer, "solver.InverseChain");
    const Clock::time_point t0 = Clock::now();
    chain = std::make_unique<spar::solver::InverseChain>(matrix, sopt.chain);
    build_s = seconds_between(t0, Clock::now());
  }

  std::vector<double> setup_s;
  std::unique_ptr<SolverService> svc;
  for (int i = 0; i < (cfg.trace ? 1 : kSetups); ++i) {
    svc.reset();  // a cold service each time: the chain is built again
    svc = std::make_unique<SolverService>(options);
    Vector b = make_rhs(n, cfg.seed, 0, static_cast<std::uint64_t>(i));
    const Clock::time_point t0 = Clock::now();
    svc->put_graph(kGraphName, grid);
    const SolveResult first = solve_once(*svc, b);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    report.record(check_reply(first, matrix, b, options.tolerance));
  }

  // Closed loop: each client has one request in flight at a time.
  std::vector<std::vector<Reply>> per_client(kClients);
  std::vector<std::string> client_errors(kClients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = seconds_from_now(cfg.seconds);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        try {
          for (std::uint64_t j = 0; Clock::now() < deadline; ++j) {
            Reply reply;
            reply.rhs = make_rhs(n, cfg.seed, static_cast<std::uint64_t>(c) + 1, j);
            const Clock::time_point t0 = Clock::now();
            {
              Tracer::Span s(tracer, "request");
              reply.result = solve_once(*svc, reply.rhs);
            }
            const Clock::time_point t1 = Clock::now();
            reply.latency_s = seconds_between(t0, t1);
            reply.done_s = seconds_between(start, t1);
            reply.verdict = check_reply(reply.result, matrix, reply.rhs, options.tolerance);
            if (j % kSampleEvery != 0) reply.rhs.clear();
            per_client[c].push_back(std::move(reply));
          }
        } catch (const std::exception& e) {
          client_errors[c] = e.what();
        }
      });
    for (std::thread& t : clients) t.join();
  }
  const double loop_s = seconds_between(start, Clock::now());
  for (const std::string& e : client_errors)
    if (!e.empty()) throw std::runtime_error("client failed: " + e);

  const spar::server::ServiceStats stats = svc->stats();
  svc.reset();

  std::vector<double> latency, done_s, queue_ms, batch_ms, batch_cols;
  const Reply* sample = nullptr;
  Vector sample_ref;
  for (std::vector<Reply>& replies : per_client)
    for (Reply& r : replies) {
      if (!r.rhs.empty() && r.verdict.empty()) {
        const Vector ref = spar::solver::solve_sdd(matrix, *chain, r.rhs, sopt).solution;
        r.verdict = check_bit_identical(r.result.solution, ref);
        if (sample == nullptr) {
          sample = &r;
          sample_ref = ref;
        }
      }
      report.record(r.verdict);
      latency.push_back(r.latency_s);
      done_s.push_back(r.done_s);
      queue_ms.push_back(static_cast<double>(r.result.queue_us) / 1e3);
      batch_ms.push_back(static_cast<double>(r.result.solve_us) / 1e3);
      batch_cols.push_back(static_cast<double>(r.result.batch_cols));
    }

  // Self-test: a perturbed solution must fail both the residual check and
  // the bit-identity check.
  if (sample != nullptr) {
    SolveResult wrong = sample->result;
    double scale = 0.0;
    for (const double v : wrong.solution) scale = std::max(scale, std::abs(v));
    for (std::size_t i = 0; i < wrong.solution.size(); ++i)
      wrong.solution[i] += (i % 2 ? 1e-6 : -1e-6) * scale;
    report.self_test_ok =
        !check_reply(wrong, matrix, sample->rhs, options.tolerance).empty() &&
        !check_bit_identical(wrong.solution, sample_ref).empty();
  }

  const double fill = static_cast<double>(chain->total_nnz()) /
                      static_cast<double>(matrix.nnz());
  const double p50_ms = median(latency) * 1e3;
  const double p90_ms = percentile(latency, 0.9) * 1e3;
  // Replies per second: the median rate over consecutive runs of kRateChunk
  // replies, so a few seconds of interference from outside the process do
  // not set the figure.
  std::sort(done_s.begin(), done_s.end());
  std::vector<double> rates;
  for (std::size_t i = 0; i + kRateChunk < done_s.size(); i += kRateChunk)
    rates.push_back(static_cast<double>(kRateChunk) / (done_s[i + kRateChunk] - done_s[i]));
  const double rps = rates.empty() ? static_cast<double>(latency.size()) / loop_s
                                   : median(rates);
  if (!cfg.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("op_p50_ms", p50_ms, "ms");
    report.metric("ops_per_s", rps, "1/s");
    report.metric("keep_ratio", fill, "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.label("solve_p50_ms", p50_ms, "ms");
    report.label("solve_p90_ms", p90_ms, "ms");
    report.label("solve_rps", rps, "1/s");
    report.label("replies", static_cast<double>(latency.size()), "count");
    report.label("chain_fill_ratio", fill, "ratio");
    report.label("peak_rss_mb", peak_rss_mb(), "MB");
    report.label("setup_s", median(setup_s), "s");
    return;
  }

  // Solver and linalg probes on the service's matrix and chain.
  const auto width = static_cast<std::size_t>(std::max(1.0, std::round(mean(batch_cols))));
  std::vector<Vector> cols;
  for (std::size_t j = 0; j < width; ++j) cols.push_back(make_rhs(n, cfg.seed, 99, j));
  const spar::linalg::MultiVector block = spar::linalg::MultiVector::from_columns(cols);
  spar::linalg::MultiVector out(n, width);

  std::vector<double> multi_ms, apply_ms, spmv_ms, jacobi_ms;
  std::size_t pcg_iterations = 0, jacobi_iterations = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Tracer::Span s(tracer, "solver.solve_sdd_multi");
    pcg_iterations = spar::solver::solve_sdd_multi(matrix, *chain, block, sopt).iterations;
    multi_ms.push_back(s.close() * 1e3);
  }
  for (int rep = 0; rep < 9; ++rep) {
    Tracer::Span s(tracer, "solver.InverseChain::apply");
    chain->apply(block, out);
    apply_ms.push_back(s.close() * 1e3);
  }
  for (int rep = 0; rep < 99; ++rep) {
    Tracer::Span s(tracer, "linalg.SDDMatrix::apply");
    matrix.apply(block, out);
    spmv_ms.push_back(s.close() * 1e3);
  }
  for (int rep = 0; rep < 3; ++rep) {
    Tracer::Span s(tracer, "solver.solve_jacobi_pcg");
    jacobi_iterations = spar::solver::solve_jacobi_pcg(matrix, cols.front(), sopt).iterations;
    jacobi_ms.push_back(s.close() * 1e3);
  }

  report.metric("trace.op_p50_ms", p50_ms, "ms");
  report.metric("solver.chain_build_s", build_s, "s");
  report.metric("solver.chain_levels", static_cast<double>(chain->num_levels()), "count");
  report.metric("solver.chain_nnz", static_cast<double>(chain->total_nnz()), "count");
  report.metric("solver.chain_fill_ratio", fill, "ratio");
  report.metric("solver.pcg_iterations", static_cast<double>(pcg_iterations), "count");
  report.metric("solver.solve_multi_ms", median(multi_ms), "ms");
  report.metric("solver.chain_apply_ms", median(apply_ms), "ms");
  report.metric("linalg.spmv_ms", median(spmv_ms), "ms");
  report.metric("solver.jacobi_pcg_ms", median(jacobi_ms), "ms");
  report.metric("solver.jacobi_iterations", static_cast<double>(jacobi_iterations), "count");
  report.metric("server.queue_wait_ms_p50", median(queue_ms), "ms");
  report.metric("server.batch_solve_ms_p50", median(batch_ms), "ms");
  report.metric("server.batch_cols_mean", mean(batch_cols), "count");
  report.metric("server.size_closes", static_cast<double>(stats.size_closes), "count");
  report.metric("server.deadline_closes", static_cast<double>(stats.deadline_closes), "count");
}

}  // namespace perfbench
