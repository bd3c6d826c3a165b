#include "solver/chain.hpp"

#include <algorithm>
#include <cmath>

#include "graph/union_find.hpp"
#include "linalg/eigen_iterative.hpp"
#include "solver/squaring.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace spar::solver {

using linalg::Vector;

namespace {

/// Lanczos steps per dominance estimate. Ritz values approach the radius
/// from below, slowest where it is near 1; 30 steps resolve the levels where
/// the progress test below is armed.
constexpr std::size_t kLanczosSteps = 30;
/// A level "squares" the estimate when gamma <= gamma_prev^kProgressExponent
/// (exact squaring would give exponent 2). The first level that fails this
/// ends the chain: deeper levels only add build and apply cost.
constexpr double kProgressExponent = 1.5;
/// The progress test is armed only once gamma_prev <= kProgressGuard. Near 1
/// the Lanczos estimate undershoots by more than one squaring step moves it,
/// so an unguarded test stops ill-conditioned chains after a level or two.
constexpr double kProgressGuard = 0.9;
/// Seed tag of the per-level Lanczos start vector (independent of the
/// sparsifier coins, which use mix64(seed, level + 1)).
constexpr std::uint64_t kDominanceSeedTag = 0x6c616e637a6f73ULL;

}  // namespace

DeflatedDominance deflated_dominance(const SDDMatrix& m,
                                     const linalg::CSRMatrix& adjacency,
                                     std::uint64_t seed) {
  const std::size_t n = m.dimension();
  const Vector& d = m.diagonal();
  const Vector& slack = m.slack();

  // Components of the graph part; those without slack span the nullspace.
  graph::UnionFind uf(n);
  for (const graph::Edge& e : m.graph_part().edges()) uf.unite(e.u, e.v);
  std::vector<std::size_t> root(n);
  std::vector<double> root_slack(n, 0.0), volume(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    root[i] = uf.find(i);
    root_slack[root[i]] += slack[i];
    volume[root[i]] += d[i];
  }

  // q_C = D^{1/2} 1_C / ||D^{1/2} 1_C|| on each zero-slack component C,
  // stored entrywise (0 on every other component).
  DeflatedDominance result;
  Vector q(n, 0.0), inv_sqrt_d(n);
  for (std::size_t i = 0; i < n; ++i) {
    inv_sqrt_d[i] = 1.0 / std::sqrt(d[i]);
    if (root_slack[root[i]] != 0.0) continue;
    q[i] = std::sqrt(d[i] / volume[root[i]]);
    if (root[i] == i) ++result.deflated_components;
  }

  // x <- x - sum_C <q_C, x> q_C. The q_C have disjoint supports, so one
  // serial pass accumulates every coefficient, each in vertex order.
  std::vector<double> coef(n);
  const auto deflate = [&](std::span<double> x) {
    std::fill(coef.begin(), coef.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) coef[root[i]] += q[i] * x[i];
    for (std::size_t i = 0; i < n; ++i) x[i] -= coef[root[i]] * q[i];
  };

  // P D^{-1/2} A D^{-1/2} P: symmetric, with the deflated directions mapped
  // to 0, so its extreme Ritz values bound the radius on the complement.
  Vector scaled(n);
  const linalg::LinearOperator op{
      n, [&](std::span<const double> x, std::span<double> y) {
        linalg::copy(x, scaled);
        deflate(scaled);
        for (std::size_t i = 0; i < n; ++i) scaled[i] *= inv_sqrt_d[i];
        adjacency.multiply(scaled, y);
        for (std::size_t i = 0; i < n; ++i) y[i] *= inv_sqrt_d[i];
        deflate(y);
      }};
  const linalg::LanczosResult ritz =
      linalg::lanczos_extreme(op, seed, kLanczosSteps);
  result.gamma = std::max(std::abs(ritz.min_eigenvalue), std::abs(ritz.max_eigenvalue));
  return result;
}

InverseChain::InverseChain(SDDMatrix m, const ChainOptions& options) {
  jacobi_steps_ = options.last_level_jacobi_steps;
  project_constant_ = m.is_singular();

  SDDMatrix current = std::move(m);
  double previous_gamma = 1.0;
  for (std::size_t level = 0; level < options.max_levels; ++level) {
    Level stored;
    stored.matrix = current;
    stored.adjacency = current.adjacency_csr();
    const Vector& d = current.diagonal();
    stored.inv_diagonal.resize(d.size());
    for (std::size_t i = 0; i < d.size(); ++i) {
      SPAR_CHECK(d[i] > 0.0, "InverseChain: zero diagonal");
      stored.inv_diagonal[i] = 1.0 / d[i];
    }

    ChainLevelInfo info;
    info.edges = current.graph_part().num_edges();
    const DeflatedDominance dominance = deflated_dominance(
        current, stored.adjacency,
        support::mix64(options.seed ^ kDominanceSeedTag, level));
    info.gamma = dominance.gamma;
    info.deflated_components = dominance.deflated_components;
    levels_.push_back(std::move(stored));
    info_.push_back(info);

    // Termination: Jacobi handles the rest once the deflated dominance is
    // small, and a level that no longer squares it is the last one worth
    // storing (sparsified levels level off near the per-level epsilon). A
    // singular input keeps its nullspace at every level; the chain is then
    // used as a PCG preconditioner with constant projection.
    if (info.gamma <= options.gamma_stop) break;
    if (previous_gamma <= kProgressGuard &&
        info.gamma > std::pow(previous_gamma, kProgressExponent))
      break;
    previous_gamma = info.gamma;
    if (current.graph_part().num_edges() == 0) break;

    // Pick the squaring path BEFORE committing product memory: the symbolic
    // fill projection is O(nnz).
    const std::size_t projected = projected_square_fill(current);
    const bool use_streamed = projected > options.streamed_fill_threshold;

    SquaringStats sq_stats;
    SDDMatrix squared;
    if (use_streamed) {
      // Fused sparsify-during-squaring: the tower spends this level's whole
      // eps budget internally (split across its passes), so the result is a
      // certified (1 +- level_epsilon) sparsifier of the exact square -- the
      // same contract as the dense square + posthoc sparsify below, without
      // the product ever being resident. No second sparsify pass follows.
      StreamedSquareOptions sqopt;
      sqopt.epsilon = options.level_epsilon;
      sqopt.rho = options.rho;
      sqopt.t = options.t;
      sqopt.seed = support::mix64(options.seed, level + 1);
      sqopt.batch_edges = options.stream_batch_edges;
      sqopt.max_resident_levels = options.stream_max_resident_levels;
      sqopt.block_fill_edges = options.stream_block_fill_edges;
      sqopt.work = options.work;
      squared = square_streamed(current, sqopt, &sq_stats);
    } else {
      squared = square(current, &sq_stats);
    }
    info_.back().edges_after_square = sq_stats.output_edges;
    info_.back().projected_fill = projected;
    info_.back().streamed_square = use_streamed;
    info_.back().peak_resident_edges = sq_stats.peak_resident_edges;
    info_.back().sparsify_passes = sq_stats.sparsify_passes;
    info_.back().epsilon_budget_used = sq_stats.epsilon_budget_used;

    // Section 4: bring the level back toward its original size whenever it
    // exceeds the threshold of applicability m' = edge_factor * n. Streamed
    // levels come out of the tower already sparsified at this level's budget.
    const auto threshold = static_cast<std::size_t>(
        options.edge_factor * static_cast<double>(squared.dimension()));
    if (!use_streamed && squared.graph_part().num_edges() > threshold) {
      sparsify::SparsifyOptions spopt;
      spopt.epsilon = options.level_epsilon;
      spopt.rho = options.rho;
      spopt.t = options.t;
      spopt.seed = support::mix64(options.seed, level + 1);
      spopt.work = options.work;
      auto sparsified = sparsify::parallel_sparsify(squared.graph_part(), spopt);
      squared = SDDMatrix(std::move(sparsified.sparsifier),
                          Vector(squared.slack()));
    }
    current = std::move(squared);
  }
}

std::size_t InverseChain::total_nnz() const {
  std::size_t total = 0;
  for (const Level& level : levels_) total += level.matrix.nnz();
  return total;
}

void InverseChain::apply_level(std::size_t level, std::span<const double> b,
                               std::span<double> y) const {
  const Level& lvl = levels_[level];
  const std::size_t n = b.size();

  if (level + 1 == levels_.size()) {
    apply_tail(b, y);
    return;
  }

  // u = (I + A D^{-1}) b
  Vector scaled(n), u(n);
  for (std::size_t i = 0; i < n; ++i) scaled[i] = lvl.inv_diagonal[i] * b[i];
  lvl.adjacency.multiply(scaled, u);
  for (std::size_t i = 0; i < n; ++i) u[i] += b[i];

  // v = M_{i+1}^{-1} u
  Vector v(n);
  apply_level(level + 1, u, v);

  // y = 1/2 (D^{-1} b + v + D^{-1} A v)
  Vector av(n);
  lvl.adjacency.multiply(v, av);
  for (std::size_t i = 0; i < n; ++i)
    y[i] = 0.5 * (lvl.inv_diagonal[i] * b[i] + v[i] + lvl.inv_diagonal[i] * av[i]);
  if (project_constant_) linalg::remove_mean(y);
}

void InverseChain::apply_tail(std::span<const double> b, std::span<double> y) const {
  const Level& lvl = levels_.back();
  const std::size_t n = b.size();
  // The tail computes M x as d o x - A x from the stored adjacency CSR and
  // diagonal (one CSR traversal per application) rather than going through
  // SDDMatrix's edge-list apply. The blocked tail uses the same formulation
  // with the blocked CSR kernel, so single and blocked columns stay
  // bit-identical while both get the cache-friendly traversal.
  const Vector& d = lvl.matrix.diagonal();

  // Damped Jacobi on M x = b starting from x = D^{-1} b:
  //   x <- x + D^{-1}(b - M x)
  Vector x(n), ax(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = lvl.inv_diagonal[i] * b[i];
  for (std::size_t step = 0; step < jacobi_steps_; ++step) {
    lvl.adjacency.multiply(x, ax);
    for (std::size_t i = 0; i < n; ++i)
      x[i] += lvl.inv_diagonal[i] * (b[i] - (d[i] * x[i] - ax[i]));
  }
  if (project_constant_) linalg::remove_mean(x);
  linalg::copy(x, y);
}

void InverseChain::apply_level_multi(std::size_t level, const linalg::MultiVector& b,
                                     linalg::MultiVector& y) const {
  const Level& lvl = levels_[level];
  const std::size_t n = b.rows();
  const std::size_t k = b.cols();

  if (level + 1 == levels_.size()) {
    apply_tail_multi(b, y);
    return;
  }

  // u = (I + A D^{-1}) b, with the A-multiply blocked across all k columns
  // (elementwise sweeps go i-outer, j-inner: one contiguous pass over the
  // interleaved block; per column the arithmetic is apply_level's exactly).
  linalg::MultiVector u(n, k);
  {
    linalg::MultiVector scaled(n, k);
    for (std::size_t i = 0; i < n; ++i) {
      const double inv_d = lvl.inv_diagonal[i];
      for (std::size_t j = 0; j < k; ++j) scaled.at(i, j) = inv_d * b.at(i, j);
    }
    lvl.adjacency.multiply(scaled, u);
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j) u.at(i, j) += b.at(i, j);

  // v = M_{i+1}^{-1} u
  linalg::MultiVector v(n, k);
  apply_level_multi(level + 1, u, v);

  // y = 1/2 (D^{-1} b + v + D^{-1} A v); u is dead, reuse it for A v.
  linalg::MultiVector& av = u;
  lvl.adjacency.multiply(v, av);
  for (std::size_t i = 0; i < n; ++i) {
    const double inv_d = lvl.inv_diagonal[i];
    for (std::size_t j = 0; j < k; ++j)
      y.at(i, j) = 0.5 * (inv_d * b.at(i, j) + v.at(i, j) + inv_d * av.at(i, j));
  }
  if (project_constant_) linalg::remove_mean_columns(y);
}

void InverseChain::apply_tail_multi(const linalg::MultiVector& b,
                                    linalg::MultiVector& y) const {
  const Level& lvl = levels_.back();
  const std::size_t n = b.rows();
  const std::size_t k = b.cols();
  const Vector& d = lvl.matrix.diagonal();

  // Damped Jacobi, blocked: one adjacency traversal per sweep serves all k
  // columns; the per-entry update replicates apply_tail's expression exactly.
  linalg::MultiVector x(n, k), ax(n, k);
  for (std::size_t i = 0; i < n; ++i) {
    const double inv_d = lvl.inv_diagonal[i];
    for (std::size_t j = 0; j < k; ++j) x.at(i, j) = inv_d * b.at(i, j);
  }
  for (std::size_t step = 0; step < jacobi_steps_; ++step) {
    lvl.adjacency.multiply(x, ax);
    for (std::size_t i = 0; i < n; ++i) {
      const double inv_d = lvl.inv_diagonal[i];
      const double di = d[i];
      for (std::size_t j = 0; j < k; ++j)
        x.at(i, j) += inv_d * (b.at(i, j) - (di * x.at(i, j) - ax.at(i, j)));
    }
  }
  if (project_constant_) linalg::remove_mean_columns(x);
  linalg::copy(x.data(), y.data());
}

void InverseChain::apply(std::span<const double> b, std::span<double> y) const {
  SPAR_CHECK(b.size() == dimension() && y.size() == dimension(),
             "InverseChain::apply: size mismatch");
  apply_level(0, b, y);
}

void InverseChain::apply(const linalg::MultiVector& b, linalg::MultiVector& y) const {
  SPAR_CHECK(b.rows() == dimension() && y.rows() == dimension() &&
                 b.cols() == y.cols(),
             "InverseChain::apply: block shape mismatch");
  if (b.cols() == 0) return;
  apply_level_multi(0, b, y);
}

linalg::LinearOperator InverseChain::as_operator() const {
  return {dimension(), [this](std::span<const double> b, std::span<double> y) {
            apply(b, y);
          }};
}

linalg::BlockOperator InverseChain::as_block_operator() const {
  return {dimension(), [this](const linalg::MultiVector& b, linalg::MultiVector& y) {
            apply(b, y);
          }};
}

}  // namespace spar::solver
