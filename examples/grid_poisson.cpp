// Remark 1 scenario: solve Poisson problems on a 2D grid -- the "affinity
// graph of an image" case the paper highlights -- with the Peng-Spielman
// chain solver (Section 4) against plain CG.
//
// The grid Laplacian is the discrete 5-point stencil. We place several
// dipole load vectors (opposite unit charges at different positions) and
// solve them all in ONE batched call: the chain is built once and
// solve_sdd_multi applies it to the whole block per PCG iteration
// (multi-RHS is the natural shape here -- one field per excitation). The
// per-RHS loop over the same chain is timed for comparison; solutions are
// identical bit for bit.
//
//   ./grid_poisson [--side=48] [--rhs=3] [--tol=1e-8]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "solver/solver.hpp"
#include "support/options.hpp"
#include "support/timer.hpp"

int main(int argc, char** argv) {
  using namespace spar;
  const support::Options opt(argc, argv);
  // Validate the signed values BEFORE the unsigned casts: a negative --rhs
  // would otherwise wrap to ~2^64 and abort on allocation instead of erroring.
  const std::int64_t side_raw = opt.get_int("side", 48);
  const std::int64_t rhs_raw = opt.get_int("rhs", 3);
  const double tol = opt.get_double("tol", 1e-8);
  if (side_raw < 4 || side_raw > (1 << 14) || rhs_raw < 1 || rhs_raw > 4096) {
    std::fprintf(stderr,
                 "grid_poisson: need 4 <= --side <= 16384 (got %lld) and "
                 "1 <= --rhs <= 4096 (got %lld)\n",
                 static_cast<long long>(side_raw), static_cast<long long>(rhs_raw));
    return 2;
  }
  const auto side = static_cast<graph::Vertex>(side_raw);
  const auto num_rhs = static_cast<std::size_t>(rhs_raw);

  const graph::Graph g = graph::grid2d(side, side);
  const solver::SDDMatrix m{graph::Graph(g)};
  std::printf("grid %ux%u: n=%zu  m=%zu (singular Laplacian, solved on range)\n",
              side, side, m.dimension(), g.num_edges());

  // Dipole load vectors: +1 / -1 charges at positions that rotate with j.
  // The offset stays within row 1 / row side-2 of the grid, so both indices
  // are in range for every side >= 4.
  linalg::MultiVector b(m.dimension(), num_rhs, 0.0);
  for (std::size_t j = 0; j < num_rhs; ++j) {
    const std::size_t offset =
        std::min<std::size_t>((j * side) / num_rhs, side - 3);
    b.at(side + 1 + offset, j) = 1.0;
    b.at(m.dimension() - side - 2 - offset, j) = -1.0;
  }

  solver::SolveOptions sopt;
  sopt.tolerance = tol;
  sopt.chain.rho = 8.0;
  sopt.chain.t = 1;

  support::Timer chain_timer;
  const solver::InverseChain chain(m, sopt.chain);
  const double chain_ms = chain_timer.millis();
  std::printf("chain: %zu levels / %zu nnz, built once in %.0f ms\n",
              chain.num_levels(), chain.total_nnz(), chain_ms);

  support::Timer batch_timer;
  const auto batched = solver::solve_sdd_multi(m, chain, b, sopt);
  const double batch_ms = batch_timer.millis();
  support::Timer loop_timer;
  for (std::size_t j = 0; j < num_rhs; ++j)
    (void)solver::solve_sdd(m, chain, b.column_copy(j), sopt);
  const double loop_ms = loop_timer.millis();
  support::Timer cg_timer;
  const auto cg = solver::solve_cg(m, b.column_copy(0), sopt);
  const double cg_ms = cg_timer.millis();

  for (std::size_t j = 0; j < num_rhs; ++j)
    std::printf("rhs %zu: chain-pcg %4zu iterations, residual %.2e\n", j,
                batched.columns[j].iterations, batched.columns[j].relative_residual);
  std::printf("batched solve of %zu rhs: %.0f ms (per-RHS loop over the same "
              "chain: %.0f ms)\n",
              num_rhs, batch_ms, loop_ms);
  std::printf("plain-cg (first rhs):  %4zu iterations, residual %.2e, %.0f ms\n",
              cg.iterations, cg.relative_residual, cg_ms);

  // Coarse ASCII rendering of the first potential field (16x16 downsample).
  std::printf("\npotential field (dipole 0):\n");
  const linalg::Vector field = batched.solutions.column_copy(0);
  double lo = field[0], hi = field[0];
  for (double v : field) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const char* shades = " .:-=+*#%@";
  const graph::Vertex cells = 16;
  for (graph::Vertex r = 0; r < cells; ++r) {
    std::string line;
    for (graph::Vertex c = 0; c < cells; ++c) {
      const graph::Vertex rr = r * side / cells;
      const graph::Vertex cc = c * side / cells;
      const double v = field[rr * side + cc];
      const int shade = static_cast<int>(9.0 * (v - lo) / (hi - lo + 1e-30));
      line += shades[shade];
    }
    std::printf("  %s\n", line.c_str());
  }
  return batched.all_converged() ? 0 : 1;
}
