#include "solver/chain.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "linalg/dense.hpp"
#include "solver/solver.hpp"
#include "solver/squaring.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace spar::solver {
namespace {

using graph::Graph;
using linalg::Vector;

SDDMatrix grounded_grid(graph::Vertex side) {
  const Graph g = graph::grid2d(side, side);
  Vector slack(g.num_vertices(), 0.0);
  slack[0] = 1.0;
  return SDDMatrix(g, slack);
}

TEST(InverseChain, TerminatesWithinMaxLevels) {
  ChainOptions opt;
  opt.max_levels = 6;
  const InverseChain chain(grounded_grid(10), opt);
  EXPECT_GE(chain.num_levels(), 1u);
  EXPECT_LE(chain.num_levels(), 6u);
}

TEST(InverseChain, GammaDecreasesAlongChain) {
  ChainOptions opt;
  opt.max_levels = 12;
  const InverseChain chain(grounded_grid(12), opt);
  const auto& info = chain.level_info();
  ASSERT_GE(info.size(), 2u);
  EXPECT_LT(info.back().gamma, info.front().gamma);
}

TEST(InverseChain, WellConditionedInputNeedsOneLevel) {
  // Massive slack makes gamma tiny: chain should stop immediately.
  const Graph g = graph::cycle_graph(20);
  const SDDMatrix m(g, Vector(20, 100.0));
  ChainOptions opt;
  const InverseChain chain(m, opt);
  EXPECT_EQ(chain.num_levels(), 1u);
}

TEST(InverseChain, ApplyIsLinear) {
  const SDDMatrix m = grounded_grid(8);
  ChainOptions opt;
  opt.max_levels = 8;
  const InverseChain chain(m, opt);
  support::Rng rng(3);
  const std::size_t n = m.dimension();
  Vector a(n), b(n);
  for (double& v : a) v = rng.normal();
  for (double& v : b) v = rng.normal();

  Vector wa(n), wb(n), wsum(n);
  chain.apply(a, wa);
  chain.apply(b, wb);
  Vector sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] - 3.0 * b[i];
  chain.apply(sum, wsum);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(wsum[i], 2.0 * wa[i] - 3.0 * wb[i], 1e-8);
}

TEST(InverseChain, ApplyIsSymmetric) {
  // <x, W y> == <W x, y> is required for PCG correctness.
  const SDDMatrix m = grounded_grid(7);
  ChainOptions opt;
  opt.max_levels = 8;
  const InverseChain chain(m, opt);
  support::Rng rng(9);
  const std::size_t n = m.dimension();
  Vector x(n), y(n), wx(n), wy(n);
  for (double& v : x) v = rng.normal();
  for (double& v : y) v = rng.normal();
  chain.apply(x, wx);
  chain.apply(y, wy);
  const double left = linalg::dot(x, wy);
  const double right = linalg::dot(wx, y);
  EXPECT_NEAR(left, right, 1e-8 * std::max(std::abs(left), 1.0));
}

TEST(InverseChain, ApplyIsPositiveDefiniteOnTestVectors) {
  const SDDMatrix m = grounded_grid(7);
  ChainOptions opt;
  const InverseChain chain(m, opt);
  support::Rng rng(17);
  const std::size_t n = m.dimension();
  for (int trial = 0; trial < 10; ++trial) {
    Vector x(n), wx(n);
    for (double& v : x) v = rng.normal();
    chain.apply(x, wx);
    EXPECT_GT(linalg::dot(x, wx), 0.0);
  }
}

TEST(InverseChain, ApproximatesInverseOnEasyMatrix) {
  // Diagonally dominant with modest gamma: one chain application should be a
  // decent inverse: ||W M x - x|| small relative to ||x||.
  const Graph g = graph::grid2d(9, 9);
  const SDDMatrix m(g, Vector(g.num_vertices(), 2.0));
  ChainOptions opt;
  const InverseChain chain(m, opt);
  support::Rng rng(5);
  const std::size_t n = m.dimension();
  Vector x(n), mx(n), wmx(n);
  for (double& v : x) v = rng.normal();
  m.apply(x, mx);
  chain.apply(mx, wmx);
  double err = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    err += (wmx[i] - x[i]) * (wmx[i] - x[i]);
    norm += x[i] * x[i];
  }
  EXPECT_LT(std::sqrt(err / norm), 0.5);
}

TEST(InverseChain, TotalNnzAccountsAllLevels) {
  const SDDMatrix m = grounded_grid(8);
  ChainOptions opt;
  opt.max_levels = 5;
  const InverseChain chain(m, opt);
  std::size_t manual = 0;
  for (const auto& info : chain.level_info()) manual += 2 * info.edges;
  EXPECT_GE(chain.total_nnz(), manual);  // + diagonals
}

TEST(InverseChain, SparsificationCapsLevelGrowth) {
  // With sparsification on, stored level sizes stay near edge_factor * n.
  const SDDMatrix m = grounded_grid(14);
  ChainOptions opt;
  opt.max_levels = 10;
  opt.edge_factor = 4.0;
  opt.rho = 8.0;
  opt.t = 1;
  const InverseChain chain(m, opt);
  const double cap = 14.0 * opt.edge_factor * double(m.dimension());
  for (const auto& info : chain.level_info())
    EXPECT_LT(double(info.edges), cap);
}

// Radius of D^{-1/2} A D^{-1/2} off span{D^{1/2} 1_C : C has no slack},
// from a dense eigendecomposition: the exact value deflated_dominance
// estimates. `deflated` is the number of zero-slack components.
double dense_deflated_radius(const SDDMatrix& m, std::size_t deflated) {
  const std::size_t n = m.dimension();
  const Vector& d = m.diagonal();
  linalg::DenseMatrix s(n, n);
  for (const graph::Edge& e : m.graph_part().edges()) {
    const double v = e.w / std::sqrt(d[e.u] * d[e.v]);
    s.at(e.u, e.v) += v;
    s.at(e.v, e.u) += v;
  }
  Vector eig = linalg::symmetric_eigenvalues(s);  // ascending
  // Each zero-slack component contributes one eigenvalue exactly 1 (its
  // D^{1/2} 1_C); drop that many from the top.
  for (std::size_t c = 0; c < deflated; ++c) {
    EXPECT_NEAR(eig.back(), 1.0, 1e-10);
    eig.pop_back();
  }
  return std::max(std::abs(eig.front()), std::abs(eig.back()));
}

TEST(DeflatedDominance, LaplacianIsOne) {
  // Deflating the constant leaves an even cycle's alternating vector, whose
  // eigenvalue is -1: the radius stays 1 until a squaring splits the classes.
  const SDDMatrix m(graph::cycle_graph(6));
  const DeflatedDominance est = deflated_dominance(m, m.adjacency_csr(), 1);
  EXPECT_EQ(est.deflated_components, 1u);
  EXPECT_NEAR(est.gamma, 1.0, 1e-12);
}

TEST(DeflatedDominance, SlackReducesGamma) {
  const Graph g = graph::cycle_graph(6);
  const SDDMatrix m(g, Vector(6, 2.0));  // degree 2, slack 2 => gamma = 0.5
  const DeflatedDominance est = deflated_dominance(m, m.adjacency_csr(), 1);
  EXPECT_EQ(est.deflated_components, 0u);
  EXPECT_NEAR(est.gamma, 0.5, 1e-12);
}

TEST(DeflatedDominance, SquaringReducesGammaForNonsingular) {
  const Graph g = graph::grid2d(7, 7);
  const SDDMatrix m(g, Vector(g.num_vertices(), 1.0));
  const SDDMatrix squared = square(m);
  const double before = deflated_dominance(m, m.adjacency_csr(), 1).gamma;
  const double after = deflated_dominance(squared, squared.adjacency_csr(), 1).gamma;
  EXPECT_LT(after, before);
}

TEST(DeflatedDominance, CoversBothBipartitionClassesOfSquaredGrid) {
  // One squaring splits a grid into its two bipartition classes, each a
  // zero-slack component: both must be deflated, or the radius reads 1.
  const SDDMatrix squared = square(SDDMatrix(graph::grid2d(8, 8)));
  ASSERT_TRUE(squared.is_singular());
  const DeflatedDominance est =
      deflated_dominance(squared, squared.adjacency_csr(), 5);
  EXPECT_EQ(est.deflated_components, 2u);
  const double exact = dense_deflated_radius(squared, 2);
  EXPECT_LT(exact, 0.99);
  EXPECT_LE(est.gamma, exact + 1e-9);  // a Ritz value never overshoots
  EXPECT_NEAR(est.gamma, exact, 1e-6);
}

TEST(DeflatedDominance, DeflatesZeroSlackClassOfGroundedSquaredGrid) {
  // Grounding one vertex of the squared grid leaves the other class without
  // slack: the matrix is nonsingular, yet that class still has radius 1 and
  // must be deflated on its own.
  const SDDMatrix squared = square(SDDMatrix(graph::grid2d(8, 8)));
  Vector slack(squared.dimension(), 0.0);
  slack[0] = 1.0;
  const SDDMatrix grounded(squared.graph_part(), slack);
  ASSERT_FALSE(grounded.is_singular());
  const DeflatedDominance est =
      deflated_dominance(grounded, grounded.adjacency_csr(), 5);
  EXPECT_EQ(est.deflated_components, 1u);
  const double exact = dense_deflated_radius(grounded, 1);
  EXPECT_LT(exact, 0.999);
  EXPECT_LE(est.gamma, exact + 1e-9);
  EXPECT_NEAR(est.gamma, exact, 1e-6);
}

TEST(DeflatedDominance, ChainReportsDeflationPerLevel) {
  // Level 0 of a connected Laplacian deflates its one component; every
  // squared level deflates both bipartition classes.
  const SDDMatrix m(graph::generate_spec("wgrid:32x32"));
  const InverseChain chain(m, ChainOptions{});
  const auto& info = chain.level_info();
  ASSERT_GE(info.size(), 2u);
  EXPECT_EQ(info.front().deflated_components, 1u);
  for (std::size_t i = 1; i < info.size(); ++i)
    EXPECT_EQ(info[i].deflated_components, 2u) << "level " << i;
}

TEST(InverseChain, SingularGridChainStopsEarlyAndConverges) {
  // The undeflated dominance of a Laplacian is 1 at every level, which ran
  // every singular chain to its depth cap; the deflated test stops it once
  // the tail is good enough, with no loss in PCG iterations.
  const SDDMatrix m(graph::generate_spec("wgrid:32x32"));
  const ChainOptions opt;
  const InverseChain chain(m, opt);
  EXPECT_LE(chain.num_levels(), 8u);
  EXPECT_LT(chain.num_levels(), opt.max_levels);
  EXPECT_LE(chain.level_info().back().gamma, opt.gamma_stop);

  support::Rng rng(21);
  Vector b(m.dimension());
  for (double& v : b) v = rng.normal();
  linalg::remove_mean(b);
  const SolveReport report = solve_sdd(m, chain, b);
  EXPECT_TRUE(report.converged);
  EXPECT_LE(report.iterations, 12u);
}

TEST(InverseChain, StopsWhereLevelsNoLongerSquareGamma) {
  // With gamma_stop below what a sparsified level can reach (~0.27-0.39 at
  // level_epsilon 0.5), only the progress test ends the chain.
  const SDDMatrix m(graph::generate_spec("wgrid:32x32"));
  ChainOptions opt;
  opt.gamma_stop = 0.1;
  opt.max_levels = 24;
  const InverseChain chain(m, opt);
  const auto& info = chain.level_info();
  ASSERT_GE(info.size(), 2u);
  EXPECT_LT(info.size(), 16u);
  EXPECT_GT(info.back().gamma, opt.gamma_stop);
  // The last level failed to square its predecessor's estimate.
  const double prev = info[info.size() - 2].gamma;
  EXPECT_LE(prev, 0.9);
  EXPECT_GT(info.back().gamma, prev * prev);

  support::Rng rng(22);
  Vector b(m.dimension());
  for (double& v : b) v = rng.normal();
  linalg::remove_mean(b);
  SolveOptions sopt;
  sopt.chain = opt;
  const SolveReport report = solve_sdd(m, chain, b, sopt);
  EXPECT_TRUE(report.converged);
  EXPECT_LE(report.iterations, 12u);
}

TEST(InverseChain, DepthAndGammaEqualAcrossThreadCounts) {
  const SDDMatrix m(graph::generate_spec("wgrid:32x32"));
  std::vector<ChainLevelInfo> reference;
  for (const int threads : {1, 2, 4}) {
    support::par::ThreadLimit limit(threads);
    const InverseChain chain(m, ChainOptions{});
    const auto& info = chain.level_info();
    if (reference.empty()) reference = info;
    ASSERT_EQ(info.size(), reference.size()) << threads << " threads";
    for (std::size_t i = 0; i < info.size(); ++i) {
      EXPECT_EQ(info[i].gamma, reference[i].gamma) << threads << " threads, level " << i;
      EXPECT_EQ(info[i].edges, reference[i].edges) << threads << " threads, level " << i;
    }
  }
}

TEST(InverseChain, SingularLaplacianChainStaysFinite) {
  const Graph g = graph::grid2d(8, 8);
  const SDDMatrix m(g);
  ChainOptions opt;
  opt.max_levels = 6;
  const InverseChain chain(m, opt);
  support::Rng rng(7);
  Vector b(m.dimension()), y(m.dimension());
  for (double& v : b) v = rng.normal();
  linalg::remove_mean(b);
  chain.apply(b, y);
  for (double v : y) EXPECT_TRUE(std::isfinite(v));
  // Output is mean-free (stays in range(L)).
  EXPECT_NEAR(linalg::mean(y), 0.0, 1e-10);
}

}  // namespace
}  // namespace spar::solver
