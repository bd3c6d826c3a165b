// Chain reuse across right-hand sides: the batched solve_sdd_multi and the
// per-RHS solve_sdd loop over the SAME prebuilt InverseChain must produce
// bit-identical solutions, column by column, for singular connected
// Laplacians (constant-nullspace projection path) and nonsingular SDD
// systems, at any thread count. This is the determinism contract that makes
// batching a pure throughput optimization.
#include "solver/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "graph/generators.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace spar::solver {
namespace {

using graph::Graph;
using linalg::MultiVector;
using linalg::Vector;

MultiVector random_rhs_block(std::size_t n, std::size_t k, std::uint64_t seed,
                             bool mean_free) {
  std::vector<Vector> cols;
  for (std::size_t j = 0; j < k; ++j) {
    support::Rng rng(support::mix64(seed, j));
    Vector b(n);
    for (double& v : b) v = rng.normal();
    if (mean_free) linalg::remove_mean(b);
    cols.push_back(std::move(b));
  }
  return MultiVector::from_columns(cols);
}

bool bits_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double residual(const SDDMatrix& m, std::span<const double> x,
                std::span<const double> b) {
  const Vector mx = m.apply(x);
  double err = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    err += (mx[i] - b[i]) * (mx[i] - b[i]);
    norm += b[i] * b[i];
  }
  return std::sqrt(err / norm);
}

/// Runs the batched and the per-RHS path on one system and demands
/// bit-identity; returns the batched solutions for cross-thread comparisons.
MultiVector check_batched_equals_loop(const SDDMatrix& m, const InverseChain& chain,
                                      const MultiVector& b, const SolveOptions& opt) {
  const auto multi = solve_sdd_multi(m, chain, b, opt);
  EXPECT_TRUE(multi.all_converged());
  EXPECT_EQ(multi.chain_levels, chain.num_levels());
  EXPECT_EQ(multi.chain_total_nnz, chain.total_nnz());
  EXPECT_GT(multi.block_applies, 0u);
  for (std::size_t j = 0; j < b.cols(); ++j) {
    const Vector bj = b.column_copy(j);
    const auto single = solve_sdd(m, chain, bj, opt);
    EXPECT_TRUE(single.converged) << "col " << j;
    EXPECT_TRUE(bits_equal(multi.solutions.column_copy(j), single.solution))
        << "col " << j << ": batched and per-RHS solutions differ bitwise";
    EXPECT_EQ(multi.columns[j].iterations, single.iterations) << "col " << j;
    EXPECT_EQ(multi.columns[j].relative_residual, single.relative_residual)
        << "col " << j;
    EXPECT_LT(residual(m, multi.solutions.column_copy(j), bj), 1e-6);
  }
  return multi.solutions;
}

TEST(SolveSddMulti, SingularLaplacianBitIdenticalAcrossThreads) {
  const Graph g = graph::grid2d(13, 13);
  const SDDMatrix m(g);  // singular: projection path
  SolveOptions opt;
  opt.chain.max_levels = 8;
  const InverseChain chain(m, opt.chain);
  const MultiVector b = random_rhs_block(m.dimension(), 5, 7, /*mean_free=*/true);

  std::vector<MultiVector> per_thread;
  for (int threads : {1, 2, 4}) {
    support::par::ThreadLimit limit(threads);
    per_thread.push_back(check_batched_equals_loop(m, chain, b, opt));
  }
  for (std::size_t t = 1; t < per_thread.size(); ++t)
    EXPECT_TRUE(bits_equal(per_thread[t].data(), per_thread[0].data()))
        << "thread sweep entry " << t << " diverged";
}

TEST(SolveSddMulti, SingularErdosRenyiBitIdentical) {
  const Graph g = graph::connected_erdos_renyi(150, 0.06, 3);
  const SDDMatrix m(g);
  SolveOptions opt;
  opt.chain.max_levels = 8;
  const InverseChain chain(m, opt.chain);
  const MultiVector b = random_rhs_block(m.dimension(), 4, 11, /*mean_free=*/true);
  check_batched_equals_loop(m, chain, b, opt);
}

TEST(SolveSddMulti, NonsingularSddBitIdenticalAcrossThreads) {
  const Graph g = graph::grid2d(12, 12);
  Vector slack(g.num_vertices(), 0.0);
  slack[0] = 1.0;
  slack[37] = 0.25;
  const SDDMatrix m(g, slack);  // nonsingular: no projection
  SolveOptions opt;
  opt.chain.max_levels = 10;
  const InverseChain chain(m, opt.chain);
  const MultiVector b = random_rhs_block(m.dimension(), 4, 19, /*mean_free=*/false);

  std::vector<MultiVector> per_thread;
  for (int threads : {1, 2, 4}) {
    support::par::ThreadLimit limit(threads);
    per_thread.push_back(check_batched_equals_loop(m, chain, b, opt));
  }
  for (std::size_t t = 1; t < per_thread.size(); ++t)
    EXPECT_TRUE(bits_equal(per_thread[t].data(), per_thread[0].data()))
        << "thread sweep entry " << t << " diverged";
}

TEST(SolveSddMulti, InternalChainBuildMatchesExplicitChain) {
  const Graph g = graph::grid2d(10, 10);
  const SDDMatrix m(g);
  SolveOptions opt;
  opt.chain.max_levels = 6;
  const MultiVector b = random_rhs_block(m.dimension(), 3, 29, /*mean_free=*/true);
  const auto internal = solve_sdd_multi(m, b, opt);  // builds its own chain
  const InverseChain chain(m, opt.chain);            // same options, same seed
  const auto external = solve_sdd_multi(m, chain, b, opt);
  EXPECT_TRUE(internal.all_converged());
  EXPECT_TRUE(bits_equal(internal.solutions.data(), external.solutions.data()));
}

TEST(SolveSddMulti, ZeroColumnSolvesToZero) {
  const Graph g = graph::grid2d(8, 8);
  const SDDMatrix m(g);
  SolveOptions opt;
  opt.chain.max_levels = 4;
  std::vector<Vector> cols = {Vector(m.dimension(), 0.0)};
  const auto report = solve_sdd_multi(m, MultiVector::from_columns(cols), opt);
  EXPECT_TRUE(report.all_converged());
  EXPECT_EQ(report.columns[0].iterations, 0u);
  for (double v : report.solutions.column_copy(0)) EXPECT_EQ(v, 0.0);
}

TEST(SolveSddMulti, RejectsWrongRhsRows) {
  const SDDMatrix m(graph::path_graph(6));
  const MultiVector b(5, 2, 1.0);  // 5 rows vs dimension 6
  EXPECT_THROW(solve_sdd_multi(m, b), spar::Error);
}

TEST(SolveSddMulti, EmptyBlockIsANoOp) {
  const SDDMatrix m(graph::grid2d(3, 3));
  const MultiVector b(m.dimension(), 0);
  const auto report = solve_sdd_multi(m, b);
  EXPECT_EQ(report.solutions.cols(), 0u);
  EXPECT_TRUE(report.columns.empty());
}

// The k = 1 fast path: a single-column block dispatches through the scalar
// solve_sdd machinery (the blocked kernels are slower at k = 1 -- E13), and
// the answer must stay bit-identical to solve_sdd, stats included, on both
// the singular (projection) and nonsingular paths.
TEST(SolveSddMulti, SingleColumnFastPathBitIdenticalToScalarSolve) {
  SolveOptions opt;
  opt.chain.max_levels = 5;
  // Singular connected Laplacian.
  {
    const SDDMatrix m(graph::grid2d(11, 9));
    const InverseChain chain(m, opt.chain);
    const MultiVector b = random_rhs_block(m.dimension(), 1, 77, /*mean_free=*/true);
    const auto multi = solve_sdd_multi(m, chain, b, opt);
    const auto single = solve_sdd(m, chain, b.column_copy(0), opt);
    ASSERT_EQ(multi.columns.size(), 1u);
    EXPECT_TRUE(single.converged);
    EXPECT_TRUE(multi.all_converged());
    EXPECT_TRUE(bits_equal(multi.solutions.column_copy(0), single.solution))
        << "k=1 fast path and solve_sdd solutions differ bitwise";
    EXPECT_EQ(multi.columns[0].iterations, single.iterations);
    EXPECT_EQ(multi.columns[0].relative_residual, single.relative_residual);
    EXPECT_EQ(multi.iterations, single.iterations);
    EXPECT_GT(multi.block_applies, 0u);
  }
  // Nonsingular SDD (positive slack).
  {
    const Graph g = graph::connected_erdos_renyi(140, 0.06, 5);
    Vector slack(g.num_vertices(), 0.35);
    const SDDMatrix m(g, std::move(slack));
    const InverseChain chain(m, opt.chain);
    const MultiVector b = random_rhs_block(m.dimension(), 1, 78, /*mean_free=*/false);
    const auto multi = solve_sdd_multi(m, chain, b, opt);
    const auto single = solve_sdd(m, chain, b.column_copy(0), opt);
    EXPECT_TRUE(bits_equal(multi.solutions.column_copy(0), single.solution));
    EXPECT_EQ(multi.columns[0].iterations, single.iterations);
    EXPECT_EQ(multi.columns[0].relative_residual, single.relative_residual);
  }
}

}  // namespace
}  // namespace spar::solver
