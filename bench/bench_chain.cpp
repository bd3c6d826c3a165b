// E14 (chain construction): dense vs streamed squaring in InverseChain.
//
// The fill-in cliff: every Peng-Spielman level squares its graph (vertices at
// hop distance 2 become adjacent), so the product A D^{-1} A is the largest
// object the whole solver ever touches -- the dense build materializes it per
// level before sparsifying it back down. The streamed path instead fuses the
// sparsifier into the SpGEMM: the product streams through a merge-and-reduce
// tower in row blocks and is never resident. The chain picks the path per
// level by ChainOptions::streamed_fill_threshold; this bench forces each one
// (SIZE_MAX = always dense, 0 = always streamed).
//
// Table A: chain build per workload and mode (dense / streamed at each thread
// count), wall-clock, stored size, and the peak resident edges of the worst
// squaring step -- the number the streamed path exists to bound. Both chains
// then drive solve_sdd on the same right-hand side at the same tolerance.
//
// Table B: per-level detail of the streamed build (fill projection, tower
// passes, composed eps budget) on the first workload.
//
// Table C: small configs where the dense eigensolver certifies: the streamed
// square's graph part must land inside (1 +- eps) of the exact square's.
//
// Exit code: nonzero if any correctness invariant fails (a solve diverges,
// streamed iterations blow past the dense envelope, the streamed build is
// nondeterministic across thread counts, a small config fails certification,
// or streamed peak memory fails to undercut the materialized product).
// Wall-clock is reported, never asserted.
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "solver/chain.hpp"
#include "solver/solver.hpp"
#include "solver/squaring.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

using namespace spar;

namespace {

/// Laplacian of `g` grounded at vertex 0: the near-singular SDD workload the
/// chain benches share (slack elsewhere would shorten the chain).
solver::SDDMatrix grounded(const graph::Graph& g) {
  linalg::Vector slack(g.num_vertices(), 0.0);
  slack[0] = 1.0;
  return solver::SDDMatrix(g, slack);
}

/// FNV-1a fingerprint of a built chain: level sizes plus the IEEE-754 bits of
/// one full apply on a fixed rhs (probes every stored weight). Equal hashes
/// across thread counts == bit-identical chains.
std::uint64_t chain_probe_hash(const solver::InverseChain& chain) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  for (const auto& info : chain.level_info()) {
    mix(info.edges);
    mix(info.edges_after_square);
  }
  const std::size_t n = chain.dimension();
  support::Rng rng(4242);
  linalg::Vector b(n), y(n);
  for (double& v : b) v = rng.normal();
  chain.apply(b, y);
  for (double v : y) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
  return h;
}

struct BuildRecord {
  double build_ms = 0.0;
  std::size_t levels = 0;
  std::size_t total_nnz = 0;
  std::size_t peak_resident = 0;   ///< worst squaring step across levels
  std::size_t worst_projected = 0;  ///< largest fill projection across levels
  std::size_t iterations = 0;
  double residual = 0.0;
  bool converged = false;
};

BuildRecord run_mode(const solver::SDDMatrix& m, const solver::ChainOptions& copt,
                     double tol, solver::InverseChain** keep = nullptr) {
  BuildRecord rec;
  support::Timer timer;
  auto* chain = new solver::InverseChain(m, copt);
  rec.build_ms = timer.millis();
  rec.levels = chain->num_levels();
  rec.total_nnz = chain->total_nnz();
  for (const auto& info : chain->level_info()) {
    rec.peak_resident = std::max(rec.peak_resident, info.peak_resident_edges);
    rec.worst_projected = std::max(rec.worst_projected, info.projected_fill);
  }

  support::Rng rng(77);
  linalg::Vector b(m.dimension());
  for (double& v : b) v = rng.normal();
  solver::SolveOptions sopt;
  sopt.tolerance = tol;
  const solver::SolveReport rep = solver::solve_sdd(m, *chain, b, sopt);
  rec.iterations = rep.iterations;
  rec.residual = rep.relative_residual;
  rec.converged = rep.converged;

  if (keep != nullptr) {
    *keep = chain;
  } else {
    delete chain;
  }
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  const support::Options opt(argc, argv);
  const bool quick = opt.get_bool("quick", false);
  const std::uint64_t seed = opt.get_int("seed", 31);
  const auto side =
      static_cast<graph::Vertex>(opt.get_int("grid-side", quick ? 48 : 1000));
  const auto er_n =
      static_cast<graph::Vertex>(opt.get_int("er-n", quick ? 2000 : 125000));
  const auto levels = static_cast<std::size_t>(opt.get_int("levels", 4));
  const double eps = opt.get_double("eps", 0.5);
  const double rho = opt.get_double("rho", 8.0);
  const auto t = static_cast<std::size_t>(opt.get_int("t", 1));
  const auto batch =
      static_cast<std::size_t>(opt.get_int("batch", quick ? 4096 : 131072));
  const auto block =
      static_cast<std::size_t>(opt.get_int("block", quick ? 16384 : 1048576));
  const auto cap = static_cast<std::size_t>(opt.get_int("cap", 3));
  const double tol = opt.get_double("tol", 1e-6);
  const bool run_dense = opt.get_bool("dense", true);
  bool ok = true;

  std::printf("parallel backend: %s\n", support::par::backend_description().c_str());

  solver::ChainOptions base;
  base.level_epsilon = eps;
  base.rho = rho;
  base.t = t;
  base.max_levels = levels;
  base.seed = seed;
  base.stream_batch_edges = batch;
  base.stream_max_resident_levels = cap;
  base.stream_block_fill_edges = block;

  const struct {
    std::string name;
    graph::Graph graph;
  } workloads[] = {
      {"grid " + std::to_string(side) + "x" + std::to_string(side),
       graph::grid2d(side, side)},
      {"er n=" + std::to_string(er_n) + " deg~16", bench::make_family("er", er_n, seed)},
  };

  support::Table table({"workload", "mode", "threads", "build ms", "levels",
                        "total nnz", "peak resident", "peak/dense", "iters",
                        "residual"});
  bool printed_levels = false;

  for (const auto& w : workloads) {
    const solver::SDDMatrix m = grounded(w.graph);
    std::printf("workload: %s  (n=%zu m=%zu)\n", w.name.c_str(), m.dimension(),
                w.graph.num_edges());

    BuildRecord dense;
    if (run_dense) {
      solver::ChainOptions copt = base;
      copt.streamed_fill_threshold = std::numeric_limits<std::size_t>::max();
      dense = run_mode(m, copt, tol);
      ok = ok && dense.converged;
      table.add_row({w.name, "dense", "-", support::Table::cell(dense.build_ms),
                     std::to_string(dense.levels), std::to_string(dense.total_nnz),
                     std::to_string(dense.peak_resident), "1.00",
                     std::to_string(dense.iterations),
                     support::Table::cell(dense.residual)});
    }

    solver::ChainOptions copt = base;
    copt.streamed_fill_threshold = 0;
    std::uint64_t first_hash = 0;
    BuildRecord streamed;
    for (const int threads : {1, 2, 4}) {
      support::par::ThreadLimit limit(threads);
      solver::InverseChain* chain = nullptr;
      streamed = run_mode(m, copt, tol, &chain);
      const std::uint64_t h = chain_probe_hash(*chain);
      if (threads == 1) {
        first_hash = h;
        if (!printed_levels) {
          support::Table lvls({"level", "edges", "after square", "projected fill",
                               "peak resident", "tower passes", "eps used", "gamma"});
          for (std::size_t i = 0; i < chain->level_info().size(); ++i) {
            const auto& info = chain->level_info()[i];
            lvls.add_row({std::to_string(i), std::to_string(info.edges),
                          std::to_string(info.edges_after_square),
                          std::to_string(info.projected_fill),
                          std::to_string(info.peak_resident_edges),
                          std::to_string(info.sparsify_passes),
                          support::Table::cell(info.epsilon_budget_used),
                          support::Table::cell(info.gamma)});
          }
          lvls.print("E14 (b): streamed per-level detail, " + w.name);
          printed_levels = true;
        }
      } else if (h != first_hash) {
        std::printf("BUG: streamed chain differs between 1 and %d threads\n", threads);
        ok = false;
      }
      delete chain;
      ok = ok && streamed.converged;
      const double vs_dense =
          run_dense ? double(streamed.peak_resident) /
                          double(std::max<std::size_t>(dense.peak_resident, 1))
                    : 0.0;
      table.add_row(
          {w.name, "streamed", std::to_string(threads),
           support::Table::cell(streamed.build_ms), std::to_string(streamed.levels),
           std::to_string(streamed.total_nnz), std::to_string(streamed.peak_resident),
           run_dense ? support::Table::cell(vs_dense) : std::string("-"),
           std::to_string(streamed.iterations), support::Table::cell(streamed.residual)});
    }

    if (run_dense) {
      // Same solve envelope: the streamed chain is the same quality class.
      if (streamed.iterations > 3 * dense.iterations + 20) {
        std::printf("BUG: streamed solve iterations (%zu) blow past dense (%zu)\n",
                    streamed.iterations, dense.iterations);
        ok = false;
      }
      // The whole point: the streamed build must undercut the materialized
      // product whenever the product dwarfs the tower granularity.
      if (dense.peak_resident > 4 * (block + batch) &&
          streamed.peak_resident >= dense.peak_resident) {
        std::printf("BUG: streamed peak (%zu) fails to undercut dense peak (%zu)\n",
                    streamed.peak_resident, dense.peak_resident);
        ok = false;
      }
    }
  }
  table.print("E14 (a): chain build dense vs streamed, eps=" + support::Table::cell(eps) +
              ", rho=" + support::Table::cell(rho) + ", t=" + std::to_string(t) +
              ", batch=" + std::to_string(batch) + ", block=" + std::to_string(block));

  // --- Table C: streamed square certifies against the exact square ----------
  support::Table cert({"graph", "product edges", "streamed edges", "lower", "upper",
                       "cert eps", "within eps"});
  const struct {
    const char* name;
    graph::Graph graph;
  } small_cases[] = {
      // Non-bipartite only: a bipartite graph's square splits into the two
      // parity classes and the exact certifier rejects disconnected inputs.
      {"weighted-er n=300", bench::make_family("weighted-er", 300, seed)},
      {"er-dense n=400", bench::make_family("er-dense", 400, seed)},
  };
  for (const auto& c : small_cases) {
    const solver::SDDMatrix m = grounded(c.graph);
    solver::SquaringStats dstats, sstats;
    const solver::SDDMatrix exact = solver::square(m, &dstats);
    // Gentle per-pass compression and coarse batches: a shallow tower keeps
    // the composed empirical error inside the requested eps on these small,
    // dense products (cf. Square.StreamedMatchesDenseSlackAndCertifiesGraph).
    solver::StreamedSquareOptions sqopt;
    sqopt.epsilon = eps;
    sqopt.rho = 2.0;
    sqopt.t = 6;
    sqopt.seed = seed;
    sqopt.batch_edges = 8192;
    sqopt.block_fill_edges = 32768;
    const solver::SDDMatrix streamed = solver::square_streamed(m, sqopt, &sstats);
    const auto bounds =
        bench::certify(exact.graph_part(), streamed.graph_part(), seed);
    const bool within = bounds.lower > 1.0 - eps && bounds.upper < 1.0 + eps;
    ok = ok && within;
    cert.add_row({c.name, std::to_string(dstats.output_edges),
                  std::to_string(sstats.output_edges),
                  support::Table::cell(bounds.lower), support::Table::cell(bounds.upper),
                  support::Table::cell(bounds.epsilon()), within ? "yes" : "NO (BUG)"});
  }
  cert.print("E14 (c): streamed square vs exact square, requested eps=" +
             support::Table::cell(eps));

  std::printf("\nacceptance: both modes converge at tol=%.1e within the shared "
              "envelope, streamed build bit-identical across thread counts, "
              "streamed peak undercuts the materialized product, small configs "
              "certify within eps: %s\n",
              tol, ok ? "correctness PASS" : "FAIL");
  return ok ? 0 : 1;
}
