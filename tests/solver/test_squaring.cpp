#include "solver/squaring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/generators.hpp"
#include "linalg/dense.hpp"
#include "sparsify/spectral_cert.hpp"
#include "support/rng.hpp"

namespace spar::solver {
namespace {

using graph::Graph;
using linalg::DenseMatrix;
using linalg::Vector;

// Dense reference: D - A D^{-1} A computed naively.
DenseMatrix dense_square(const SDDMatrix& m) {
  const std::size_t n = m.dimension();
  const DenseMatrix a = DenseMatrix::from_csr(m.adjacency_csr());
  const Vector& d = m.diagonal();
  DenseMatrix ad(n, n);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < n; ++r) ad.at(r, c) = a.at(r, c) / d[c];
  const DenseMatrix ada = ad.multiply(a);
  DenseMatrix out(n, n);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < n; ++r)
      out.at(r, c) = (r == c ? d[r] : 0.0) - ada.at(r, c);
  return out;
}

TEST(Square, MatchesDenseReferenceOnLaplacian) {
  const Graph g = graph::randomize_weights(graph::connected_erdos_renyi(25, 0.3, 3), 1.0, 5);
  const SDDMatrix m(g);
  const SDDMatrix sq = square(m);
  const DenseMatrix expected = dense_square(m);
  const DenseMatrix got = DenseMatrix::from_csr(sq.to_csr());
  for (std::size_t i = 0; i < m.dimension(); ++i)
    for (std::size_t j = 0; j < m.dimension(); ++j)
      EXPECT_NEAR(got.at(i, j), expected.at(i, j), 1e-9) << i << "," << j;
}

TEST(Square, MatchesDenseReferenceWithSlack) {
  const Graph g = graph::grid2d(5, 5);
  Vector slack(g.num_vertices());
  support::Rng rng(7);
  for (double& s : slack) s = rng.uniform();
  const SDDMatrix m(g, slack);
  const SDDMatrix sq = square(m);
  const DenseMatrix expected = dense_square(m);
  const DenseMatrix got = DenseMatrix::from_csr(sq.to_csr());
  for (std::size_t i = 0; i < m.dimension(); ++i)
    for (std::size_t j = 0; j < m.dimension(); ++j)
      EXPECT_NEAR(got.at(i, j), expected.at(i, j), 1e-9);
}

TEST(Square, LaplacianSquaresToLaplacian) {
  // The squared matrix of a singular Laplacian is singular: slack stays 0.
  const Graph g = graph::connected_erdos_renyi(30, 0.2, 9);
  const SDDMatrix sq = square(SDDMatrix(g));
  EXPECT_TRUE(sq.is_singular());
}

TEST(Square, SlackStaysNonnegative) {
  const Graph g = graph::grid2d(6, 6);
  const SDDMatrix m(g, Vector(g.num_vertices(), 0.3));
  const SDDMatrix sq = square(m);
  for (double s : sq.slack()) EXPECT_GE(s, 0.0);
  EXPECT_FALSE(sq.is_singular());
}

TEST(Square, DensifiesSparseGraphs) {
  // Distance-2 neighbors become adjacent: grids gain edges.
  const Graph g = graph::grid2d(8, 8);
  SquaringStats stats;
  square(SDDMatrix(g), &stats);
  EXPECT_EQ(stats.input_edges, g.num_edges());
  EXPECT_GT(stats.output_edges, g.num_edges());
}

TEST(Square, PreservesDiagonal) {
  // M~ = D - A D^{-1} A keeps the same D by construction:
  // degree'(i) + slack'(i) + diag(AD^{-1}A)(i) == D_ii... i.e. full diagonal
  // of M~ is D - diag(AD^{-1}A); verify via to_csr.
  const Graph g = graph::cycle_graph(10);
  const SDDMatrix m(g, Vector(10, 0.5));
  const SDDMatrix sq = square(m);
  const auto diag = sq.to_csr().diagonal_vector();
  const DenseMatrix expected = dense_square(m);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_NEAR(diag[i], expected.at(i, i), 1e-10);
}

TEST(Square, FoldsUnderflowedOffdiagIntoDiagonal) {
  // Product off-diagonals of A D^{-1} A are sums of nonnegative terms, so a
  // genuinely negative entry is unreachable through this API (Graph enforces
  // w > 0); the reachable degenerate case is underflow to EXACTLY zero on
  // extreme weight ranges. The split loop must route such entries through the
  // diagonal fold -- never to add_edge (a w == 0 edge throws) and never to a
  // silent drop that would desynchronize the row-sum bookkeeping if a future
  // kernel produced genuine cancellation. Path 0-1-2 with tiny edge weights
  // and a hugely grounded middle vertex: S_02 = w_01 * w_12 / D_1 ~ 1e-480,
  // which underflows to zero.
  Graph g(3);
  g.add_edge(0, 1, 1e-160);
  g.add_edge(1, 2, 1e-160);
  Vector slack(3, 0.0);
  slack[1] = 1e160;
  const SDDMatrix m(g, slack);
  SquaringStats stats;
  SDDMatrix sq;
  ASSERT_NO_THROW(sq = square(m, &stats));
  // The underflowed (0, 2) entry folded away: no edge survives, and none with
  // a non-positive weight was ever attempted.
  EXPECT_EQ(sq.graph_part().num_edges(), 0u);
  EXPECT_EQ(stats.output_edges, 0u);
  // Slack stays nonnegative and finite; the grounded vertex keeps its slack.
  for (double s : sq.slack()) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, 0.0);
  }
  EXPECT_FALSE(sq.is_singular());
}

TEST(Square, StreamedMatchesDenseSlackAndCertifiesGraph) {
  // square_streamed must reproduce square()'s slack to roundoff (the slack is
  // accumulated from the exact product, pre-sparsification) while its graph
  // part certifies as a (1 +- eps) approximation of the exact square's graph.
  const Graph g =
      graph::randomize_weights(graph::connected_erdos_renyi(80, 0.25, 11), 1.0, 3);
  Vector slack(g.num_vertices(), 0.0);
  support::Rng rng(13);
  for (double& s : slack) s = rng.uniform();
  const SDDMatrix m(g, slack);

  SquaringStats dense_stats, stream_stats;
  const SDDMatrix dense = square(m, &dense_stats);
  // Gentle per-pass compression (rho = 2, wide bundles): the tower's
  // empirical error must land inside the modest eps = 0.5 budget even though
  // the product is near-complete and goes through several reduce passes.
  StreamedSquareOptions opt;
  opt.epsilon = 0.5;
  opt.rho = 2.0;
  opt.t = 4;
  opt.seed = 41;
  opt.batch_edges = 512;
  opt.block_fill_edges = 2048;
  const SDDMatrix streamed = square_streamed(m, opt, &stream_stats);

  ASSERT_EQ(streamed.dimension(), dense.dimension());
  for (std::size_t i = 0; i < dense.dimension(); ++i)
    EXPECT_NEAR(streamed.slack()[i], dense.slack()[i],
                1e-9 * std::max(1.0, m.diagonal()[i]))
        << i;

  const sparsify::ApproxBounds bounds =
      sparsify::exact_relative_bounds(dense.graph_part(), streamed.graph_part());
  ASSERT_TRUE(bounds.defined);
  EXPECT_GT(bounds.lower, 1.0 - opt.epsilon);
  EXPECT_LT(bounds.upper, 1.0 + opt.epsilon);

  // Stats coherence: the emitted product matches the dense path's edge count
  // exactly (same entries, same split rule), and the tower accounting is on.
  EXPECT_EQ(stream_stats.product_edges, dense_stats.output_edges);
  EXPECT_EQ(stream_stats.input_edges, g.num_edges());
  EXPECT_EQ(stream_stats.output_edges, streamed.graph_part().num_edges());
  EXPECT_GE(stream_stats.projected_fill, 2 * stream_stats.product_edges);
  EXPECT_GE(stream_stats.row_blocks, 1u);
  EXPECT_GE(stream_stats.batches, 1u);
  EXPECT_LE(stream_stats.depth_used, stream_stats.depth_planned);
  EXPECT_LE(stream_stats.epsilon_budget_used, opt.epsilon + 1e-12);
}

TEST(Square, StreamedLaplacianStaysSingular) {
  // The fused path preserves the slack-exactness invariant: a singular
  // Laplacian squares to a singular matrix even though the graph part went
  // through the sparsifier tower.
  const Graph g = graph::connected_erdos_renyi(60, 0.2, 9);
  StreamedSquareOptions opt;
  opt.batch_edges = 128;
  opt.block_fill_edges = 512;
  const SDDMatrix sq = square_streamed(SDDMatrix(g), opt);
  EXPECT_TRUE(sq.is_singular());
}

TEST(ProjectedSquareFill, BoundsActualProductSize) {
  // The symbolic bound dominates the real fill (it counts pre-merge
  // expansion terms) and is cheap enough to act as the chain's guard.
  const Graph g = graph::connected_erdos_renyi(70, 0.15, 5);
  const SDDMatrix m(g);
  const std::size_t projected = projected_square_fill(m);
  SquaringStats stats;
  square(m, &stats);
  // Off-diagonal product entries appear twice in the symmetric product plus
  // diagonal terms; the pre-merge bound dominates all of it.
  EXPECT_GE(projected, 2 * stats.output_edges);
  EXPECT_GT(projected, 0u);
}

}  // namespace
}  // namespace spar::solver
