#include "solver/squaring.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "graph/edge_view.hpp"
#include "linalg/laplacian.hpp"
#include "sparsify/stream.hpp"
#include "support/assert.hpp"

namespace spar::solver {

using graph::Graph;
using graph::Vertex;
using linalg::CSRMatrix;
using linalg::Vector;

namespace {

/// New slack d - diag(S) - rowsum(offdiag(S)) >= 0 (exactly 0 for
/// Laplacians); clamps tiny negative fuzz from floating point and snaps
/// roundoff to exactly zero so Laplacians square to Laplacians (singularity
/// is decided by slack == 0). Shared by the dense and streamed paths so both
/// apply the identical tolerance policy.
Vector slack_from_rowsums(const Vector& d, const Vector& s_diag,
                          const Vector& offdiag_rowsum) {
  const std::size_t n = d.size();
  Vector new_slack(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double slack = d[i] - s_diag[i] - offdiag_rowsum[i];
    SPAR_CHECK(slack > -1e-8 * std::max(1.0, d[i]),
               "square: negative slack beyond roundoff; input was not SDD");
    new_slack[i] = slack > 1e-12 * std::max(1.0, d[i]) ? slack : 0.0;
  }
  return new_slack;
}

}  // namespace

SDDMatrix square(const SDDMatrix& m, SquaringStats* stats) {
  const std::size_t n = m.dimension();
  const Vector& d = m.diagonal();
  for (double di : d) SPAR_CHECK(di > 0.0, "square: zero diagonal (isolated vertex)");

  // S = A D^{-1} A = (A D^{-1/2}) (D^{-1/2} A): scale symmetrically then GEMM.
  Vector inv_sqrt_d(n);
  for (std::size_t i = 0; i < n; ++i) inv_sqrt_d[i] = 1.0 / std::sqrt(d[i]);
  const CSRMatrix a = m.adjacency_csr();
  const CSRMatrix a_scaled = a.scaled_symmetric(inv_sqrt_d);
  // (A D^{-1/2}) rows scaled on the right only: a.scaled_symmetric scales both
  // sides; S = D^{1/2} (D^{-1/2} A D^{-1/2})^2 D^{1/2}. Using X = D^{-1/2}AD^{-1/2}:
  // S = D^{1/2} X X D^{1/2}.
  const CSRMatrix x2 = a_scaled.multiply(a_scaled);
  Vector sqrt_d(n);
  for (std::size_t i = 0; i < n; ++i) sqrt_d[i] = std::sqrt(d[i]);
  const CSRMatrix s = x2.scaled_symmetric(sqrt_d);

  // Split S into off-diagonal (new adjacency) and diagonal.
  Graph new_graph(static_cast<Vertex>(n));
  Vector s_diag(n, 0.0);
  const auto offsets = s.row_offsets();
  const auto cols = s.col_indices();
  const auto vals = s.values();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      const std::uint32_t c = cols[k];
      if (c == r) {
        s_diag[r] += vals[k];
      } else if (vals[k] <= 0.0) {
        // Off-diagonal mass that cancelled to <= 0 (product entries are sums
        // of nonnegative terms, so this is underflow-to-zero on extreme
        // weight ranges, never genuine negativity). Fold it into the diagonal
        // rather than dropping it: each row's sum -- and therefore its slack
        // -- then matches the computed product exactly, and Laplacian inputs
        // stay exactly singular instead of leaking spurious slack.
        s_diag[r] += vals[k];
      } else if (c > r) {
        new_graph.add_edge(static_cast<Vertex>(r), c, vals[k]);
      }
    }
  }

  Vector new_degree = linalg::degree_vector(new_graph);
  Vector new_slack = slack_from_rowsums(d, s_diag, new_degree);

  if (stats != nullptr) {
    stats->input_edges = m.graph_part().num_edges();
    stats->output_edges = new_graph.num_edges();
    stats->product_edges = new_graph.num_edges();
    stats->peak_resident_edges = x2.nnz();
  }
  return SDDMatrix(std::move(new_graph), std::move(new_slack));
}

SDDMatrix square_streamed(const SDDMatrix& m, const StreamedSquareOptions& options,
                          SquaringStats* stats) {
  const std::size_t n = m.dimension();
  const Vector& d = m.diagonal();
  for (double di : d)
    SPAR_CHECK(di > 0.0, "square_streamed: zero diagonal (isolated vertex)");
  SPAR_CHECK(options.batch_edges > 0, "square_streamed: batch_edges must be positive");
  SPAR_CHECK(options.block_fill_edges > 0,
             "square_streamed: block_fill_edges must be positive");

  Vector inv_sqrt_d(n), sqrt_d(n);
  for (std::size_t i = 0; i < n; ++i) {
    sqrt_d[i] = std::sqrt(d[i]);
    inv_sqrt_d[i] = 1.0 / sqrt_d[i];
  }
  const CSRMatrix a = m.adjacency_csr();
  const CSRMatrix x = a.scaled_symmetric(inv_sqrt_d);

  // Plan before committing any product memory: per-row symbolic fill bounds
  // drive both the row-block partition and the tower's batch plan. Emitted
  // upper-triangle edges never exceed half the total expansion count, so the
  // derived batch count is a valid upper bound for the eps budget split.
  const std::vector<std::size_t> fill = x.multiply_fill_bound(x);
  std::size_t total_fill = 0;
  for (const std::size_t f : fill) total_fill += f;

  sparsify::StreamOptions sopt;
  sopt.epsilon = options.epsilon;
  sopt.rho = options.rho;
  sopt.t = options.t;
  sopt.seed = options.seed;
  sopt.batch_edges = options.batch_edges;
  sopt.max_resident_levels = options.max_resident_levels;
  sopt.work = options.work;
  const std::size_t planned_batches = std::max<std::size_t>(
      1, (total_fill / 2 + options.batch_edges - 1) / options.batch_edges);
  sparsify::StreamSparsifier tower(static_cast<Vertex>(n), planned_batches, sopt);

  // Exact row sums of S = D^{1/2} X X D^{1/2} accumulate on the way past the
  // tower, so the slack is computed from the PRE-sparsification product (the
  // sparsifier only ever sees the graph part). The emit scan is serial per
  // block, so batch contents are a pure function of (matrix, block plan) --
  // the determinism contract; the SpGEMM inside each block is the parallel
  // (but deterministic) Gustavson kernel.
  Vector s_diag(n, 0.0), offdiag_rowsum(n, 0.0);
  std::vector<Vertex> bu, bv;
  std::vector<double> bw;
  bu.reserve(options.batch_edges);
  bv.reserve(options.batch_edges);
  bw.reserve(options.batch_edges);
  std::size_t product_edges = 0, row_blocks = 0, max_block_nnz = 0;

  const auto flush = [&] {
    if (bu.empty()) return;
    const graph::EdgeView batch{static_cast<Vertex>(n), bu.size(), bu.data(),
                                bv.data(), bw.data()};
    tower.push_batch(batch);
    bu.clear();
    bv.clear();
    bw.clear();
  };

  std::size_t rb = 0;
  while (rb < n) {
    // Greedy partition: grow the block while its symbolic fill fits the
    // budget (a single row may exceed it alone; it then gets its own block).
    std::size_t re = rb + 1;
    std::size_t block_fill = fill[rb];
    while (re < n && block_fill + fill[re] <= options.block_fill_edges) {
      block_fill += fill[re];
      ++re;
    }

    const CSRMatrix x2b = x.multiply(x, rb, re);
    ++row_blocks;
    max_block_nnz = std::max(max_block_nnz, x2b.nnz());
    const auto offsets = x2b.row_offsets();
    const auto cols = x2b.col_indices();
    const auto vals = x2b.values();
    for (std::size_t lr = 0; lr < re - rb; ++lr) {
      const std::size_t r = rb + lr;
      const double sr = sqrt_d[r];
      for (std::size_t k = offsets[lr]; k < offsets[lr + 1]; ++k) {
        const std::uint32_t c = cols[k];
        const double sv = sr * vals[k] * sqrt_d[c];
        if (c == r) {
          s_diag[r] += sv;
        } else if (sv <= 0.0) {
          // Same fold as square(): keep the row sum exact.
          s_diag[r] += sv;
        } else if (c > r) {
          // One emission per unordered pair; both endpoint row sums take the
          // upper-triangle value, exactly like degree_vector over the dense
          // path's graph.
          offdiag_rowsum[r] += sv;
          offdiag_rowsum[c] += sv;
          ++product_edges;
          bu.push_back(static_cast<Vertex>(r));
          bv.push_back(c);
          bw.push_back(sv);
          if (bu.size() == options.batch_edges) flush();
        }
        // c < r with sv > 0: the (c, r) mirror emitted this pair already.
      }
    }
    rb = re;
  }
  flush();
  sparsify::StreamResult result = tower.finish();

  Vector new_slack = slack_from_rowsums(d, s_diag, offdiag_rowsum);

  if (stats != nullptr) {
    stats->input_edges = m.graph_part().num_edges();
    stats->output_edges = result.sparsifier.num_edges();
    stats->product_edges = product_edges;
    stats->projected_fill = total_fill;
    stats->row_blocks = row_blocks;
    stats->batches = result.report.batches;
    stats->sparsify_passes = result.report.sparsify_calls;
    stats->depth_planned = result.report.depth_planned;
    stats->depth_used = result.report.depth_used;
    stats->peak_resident_edges =
        result.report.peak_resident_edges + max_block_nnz + options.batch_edges;
    stats->epsilon_budget_used = result.report.epsilon_budget_used;
  }
  return SDDMatrix(std::move(result.sparsifier), std::move(new_slack));
}

std::size_t projected_square_fill(const SDDMatrix& m) {
  const CSRMatrix a = m.adjacency_csr();
  const std::vector<std::size_t> fill = a.multiply_fill_bound(a);
  std::size_t total = 0;
  for (const std::size_t f : fill) total += f;
  return total;
}

}  // namespace spar::solver
