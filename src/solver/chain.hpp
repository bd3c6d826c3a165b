// Approximate inverse chains (Peng-Spielman, Section 4 of the paper).
//
// Level i stores M_i = D_i - A_i; M_{i+1} approximates D_i - A_i D_i^{-1} A_i
// with the graph part sparsified by PARALLELSPARSIFY whenever it exceeds the
// size threshold (this is precisely where Theorem 5 plugs in: sparsify by a
// chosen factor rho instead of all the way down, Section 4's refinement).
// The chain applies
//
//   M_i^{-1} b ~ 1/2 [ D_i^{-1} b + (I + D_i^{-1} A_i) M_{i+1}^{-1} (I + A_i D_i^{-1}) b ]
//
// recursively; the last level is solved with damped Jacobi. The resulting
// operator is symmetric PSD, so it serves directly as a PCG preconditioner
// (how bench_solver uses it), and as a standalone solver via iterative
// refinement.
//
// The squaring step is where fill-in explodes (A D^{-1} A connects every
// 2-hop pair). Each level projects the fill of its square before committing
// any product memory and picks one of two paths by a single threshold,
// ChainOptions::streamed_fill_threshold: at or below it the exact product is
// materialized then sparsified; above it the sparsifier is fused into the
// SpGEMM, so the product streams through a bounded-memory tower and is never
// resident.
//
// Where the chain stops: Theorem 6 needs depth O(log kappa), with kappa
// measured away from the nullspace. Each level therefore estimates the
// spectral radius of D^{-1/2} A D^{-1/2} after deflating D^{1/2} 1_C for
// every connected component C without slack (deflated_dominance). The chain
// stops once that estimate is at most gamma_stop, or once a level no longer
// squares it (sparsified levels level off near the per-level epsilon).
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/operator.hpp"
#include "solver/sdd_matrix.hpp"
#include "sparsify/sparsify.hpp"

namespace spar::solver {

/// Build settings of an InverseChain: per-level sparsifier accuracy, depth
/// and stopping rule, the last-level Jacobi sweeps, and the squaring path.
struct ChainOptions {
  /// Per-level sparsifier accuracy. The theory needs eps = 1/O(log kappa);
  /// wrapped in PCG a constant works and is what we default to.
  double level_epsilon = 0.5;
  /// Sparsification factor per level (Theorem 5's rho).
  double rho = 4.0;
  /// Bundle width forwarded to PARALLELSPARSIFY (0 = theoretical).
  std::size_t t = 2;
  /// Sparsify a level only when its graph part has more than
  /// edge_factor * n edges (the "threshold of applicability" m').
  double edge_factor = 4.0;
  /// Hard cap on chain depth. The stopping rule below ends most chains
  /// before it; the 160x160 and 240x240 grids of E18 and E13 reach it, and
  /// there a deeper chain loses:
  /// each level's sparsifier error compounds faster than the smaller tail
  /// radius helps (DESIGN.md, "Where the chain stops").
  std::size_t max_levels = 10;
  /// Stop when the level's deflated dominance (see deflated_dominance) is at
  /// most this: the last level's Jacobi sweeps contract at that rate. The
  /// chain also stops, whatever this is, at the first level that no longer
  /// squares the previous level's estimate. 0.95 is the shallowest setting
  /// measured to keep PCG iterations flat (DESIGN.md §6): as a PCG
  /// preconditioner, a weak tail costs less than more sparsified levels.
  double gamma_stop = 0.95;
  /// Damped Jacobi sweeps on the last level (where gamma is small enough
  /// that a few sweeps solve the remaining system).
  std::size_t last_level_jacobi_steps = 12;
  std::uint64_t seed = 99;  ///< seeds the per-level sparsifier coins
  /// A level squares by square_streamed() when its projected_square_fill
  /// exceeds this many product entries, and by square() otherwise. The
  /// default keeps small instances on the exact dense path; 0 always
  /// streams, SIZE_MAX always squares densely.
  std::size_t streamed_fill_threshold = std::size_t{1} << 22;
  /// Streamed squaring: tower batch granularity in edges.
  std::size_t stream_batch_edges = std::size_t{1} << 17;
  /// Streamed squaring: tower resident-level cap (peak memory knob).
  std::size_t stream_max_resident_levels = 3;
  /// Streamed squaring: target symbolic fill per SpGEMM row-block.
  std::size_t stream_block_fill_edges = std::size_t{1} << 20;
  support::WorkCounter* work = nullptr;  ///< optional work accounting sink
};

/// Per-level bookkeeping recorded while the chain is built. The squaring
/// fields describe the step that produced the NEXT level from this one (all
/// zero/false on the final level, which never squares).
struct ChainLevelInfo {
  std::size_t edges_after_square = 0;  ///< 0 for the input level
  std::size_t edges = 0;               ///< stored (possibly sparsified) edges
  /// Deflated dominance at this level: the quantity the stopping rule tested.
  double gamma = 0.0;
  /// Zero-slack connected components deflated when estimating gamma.
  std::size_t deflated_components = 0;
  /// Symbolic fill bound of this level's square (what the path choice
  /// compared against streamed_fill_threshold).
  std::size_t projected_fill = 0;
  bool streamed_square = false;  ///< next level built by square_streamed()
  /// Peak resident edges of the squaring step (tower + block + batch when
  /// streamed; the materialized product's nnz when dense).
  std::size_t peak_resident_edges = 0;
  std::size_t sparsify_passes = 0;   ///< streamed-tower reduce passes
  double epsilon_budget_used = 0.0;  ///< composed tower eps (streamed only)
};

/// The chain's convergence measure at one level (see deflated_dominance).
struct DeflatedDominance {
  /// Estimated spectral radius of D^{-1/2} A D^{-1/2} off the deflated
  /// directions (a Lanczos Ritz value: at most the true radius).
  double gamma = 0.0;
  /// Connected components whose slack sums to zero, each deflated.
  std::size_t deflated_components = 0;
};

/// Spectral radius of D^{-1/2} A D^{-1/2} on the complement of the vectors
/// D^{1/2} 1_C, one per connected component C of m's graph part whose slack
/// sums to zero (the nullspace of m, where the radius is exactly 1). Found
/// by a fixed number of Lanczos steps from a start vector drawn from `seed`;
/// `adjacency` must be m.adjacency_csr(). Deterministic for fixed inputs
/// across thread counts.
DeflatedDominance deflated_dominance(const SDDMatrix& m,
                                     const linalg::CSRMatrix& adjacency,
                                     std::uint64_t seed);

/// The Peng-Spielman approximate inverse chain of an SDD matrix; apply() is
/// a symmetric PSD approximation of M^{-1}, used as a PCG preconditioner.
class InverseChain {
 public:
  /// Builds the chain for `m`. Levels stop once the deflated dominance is at
  /// most gamma_stop, once a level no longer squares it, when a level has no
  /// edges left, or at max_levels.
  InverseChain(SDDMatrix m, const ChainOptions& options);

  /// Number of stored levels (>= 1).
  std::size_t num_levels() const { return levels_.size(); }
  /// Dimension n shared by every level (squaring never coarsens vertices).
  std::size_t dimension() const { return levels_.front().matrix.dimension(); }
  /// Build-time bookkeeping, one entry per level.
  const std::vector<ChainLevelInfo>& level_info() const { return info_; }

  /// Total stored nonzeros across the chain ("total size of the approximate
  /// inverse chain" in Theorem 6's work bound).
  std::size_t total_nnz() const;

  /// y ~ M^{-1} b: one top-down chain application (symmetric PSD operator).
  void apply(std::span<const double> b, std::span<double> y) const;

  /// Blocked chain application: Y.column(j) ~ M^{-1} B.column(j) for every
  /// column, with each level's CSR structure traversed once for the whole
  /// block (the batched-solve hot path). Per column the arithmetic replicates
  /// the single-vector apply() exactly, so results are bit-identical to
  /// applying the chain to each column alone. Scratch is O(levels * n * k)
  /// doubles; batch very wide blocks at the call site if memory matters.
  void apply(const linalg::MultiVector& b, linalg::MultiVector& y) const;

  /// The chain as a LinearOperator (for preconditioned_cg).
  linalg::LinearOperator as_operator() const;

  /// The chain as a BlockOperator (for blocked_pcg / solve_sdd_multi).
  linalg::BlockOperator as_block_operator() const;

 private:
  struct Level {
    SDDMatrix matrix;
    linalg::Vector inv_diagonal;
    linalg::CSRMatrix adjacency;
  };

  void apply_level(std::size_t level, std::span<const double> b,
                   std::span<double> y) const;
  void apply_tail(std::span<const double> b, std::span<double> y) const;
  void apply_level_multi(std::size_t level, const linalg::MultiVector& b,
                         linalg::MultiVector& y) const;
  void apply_tail_multi(const linalg::MultiVector& b, linalg::MultiVector& y) const;

  std::vector<Level> levels_;
  std::vector<ChainLevelInfo> info_;
  std::size_t jacobi_steps_;
  bool project_constant_;
};

}  // namespace spar::solver
