// Algorithm 1 (PARALLELSAMPLE) of the paper.
//
//   1. Compute a (24 log^2 n / eps^2)-bundle spanner H of G.
//   2. G~ := H.
//   3. Every edge e not in H joins G~ with probability 1/4 at weight 4 w_e.
//
// Theorem 4: with probability 1 - 1/n^2 the output is a (1 +- eps)
// approximation with at most O(n log^3 n / eps^2) + m/2 edges.
//
// The theoretical bundle width t = ceil(24 log^2 n / eps^2) exceeds any
// feasible edge budget for real n (a theory constant, see DESIGN.md), so the
// options expose both the paper's setting (BundleWidth::kTheory) and a
// practical width (explicit t); the sampling mechanism -- the paper's
// contribution -- is identical in both. Benches certify the resulting
// (1 +- eps) empirically.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "spanner/bundle.hpp"
#include "sparsify/round_context.hpp"
#include "support/work_counter.hpp"

namespace spar::sparsify {

/// What the bundle of a PARALLELSAMPLE round is built from.
enum class BundleKind {
  kSpanner,  ///< Definition 1 bundles (the paper's algorithm)
  kTree,     ///< Remark 2: low-stretch-tree bundles
};

struct SampleOptions {
  double epsilon = 0.5;
  /// Bundle width. 0 = the paper's theoretical t = ceil(24 log2(n)^2/eps^2);
  /// any positive value overrides (the practical setting).
  std::size_t t = 0;
  /// Keep-probability for off-bundle edges; kept edges are reweighted by 1/p.
  /// The paper fixes p = 1/4.
  double keep_probability = 0.25;
  BundleKind bundle_kind = BundleKind::kSpanner;
  std::uint64_t seed = 1;
  support::WorkCounter* work = nullptr;
};

struct SampleResult {
  graph::Graph sparsifier;
  std::size_t bundle_edges = 0;
  std::size_t off_bundle_edges = 0;  ///< candidates for sampling
  std::size_t sampled_edges = 0;     ///< coin flips that kept the edge
  std::size_t t_used = 0;
};

/// The paper's theoretical bundle width for given n and eps (log base 2).
std::size_t theory_bundle_width(std::size_t n, double epsilon);

/// One PARALLELSAMPLE round executed in place on the round pipeline's
/// context: bundle on the reusable CSR scratch, verdicts, then index
/// compaction with in-place reweighting. No Graph is materialized; the
/// shrunken universe stays in ctx's arena for the next round.
SampleRoundStats parallel_sample_round(RoundContext& ctx,
                                       const SampleOptions& options);

/// Boundary wrapper: runs one round on a fresh RoundContext and materializes
/// the result as a Graph. Output is identical to the pre-arena
/// implementation (golden-hash pinned).
SampleResult parallel_sample(const graph::Graph& g, const SampleOptions& options);

}  // namespace spar::sparsify
