// Algorithm 2 (PARALLELSPARSIFY) of the paper: ceil(log2 rho) rounds of
// PARALLELSAMPLE at per-round accuracy eps / ceil(log2 rho).
//
// (The paper's line 3 calls PARALLELSPARSIFY recursively -- an evident typo
// for PARALLELSAMPLE; the proof of Theorem 5 iterates PARALLELSAMPLE and so
// do we. See DESIGN.md.)
//
// Theorem 5: the result is a (1 +- eps) approximation w.h.p. with
// O(n log^3 n log^3 rho / eps^2 + m/rho) edges after
// O(m log^2 n log^3 rho / eps^2) work; off-bundle mass halves per round so
// the first round dominates the work.
#pragma once

#include <cstdint>
#include <vector>

#include "sparsify/sample.hpp"

namespace spar::sparsify {

/// Settings of one PARALLELSPARSIFY run.
struct SparsifyOptions {
  double epsilon = 0.5;  ///< target relative error, split across the rounds
  double rho = 4.0;  ///< target sparsification factor (paper's parameter)
  /// Per-round bundle width; 0 = the paper's theoretical value for the
  /// per-round eps. Practical runs set this to a small constant.
  std::size_t t = 0;
  double keep_probability = 0.25;  ///< off-bundle keep probability per round
  BundleKind bundle_kind = BundleKind::kSpanner;  ///< bundle of every round
  std::uint64_t seed = 1;                ///< round r = 1, 2, ... uses mix64(seed, r)
  support::WorkCounter* work = nullptr;  ///< optional work accounting sink
  /// Stop early once a round has no off-bundle edges left (the bundle is the
  /// whole graph and further rounds are identities). The paper iterates a
  /// fixed count; early exit changes nothing in the output.
  bool stop_when_saturated = true;
};

/// Statistics of one round of the loop.
struct RoundStats {
  std::size_t edges_before = 0;   ///< universe size entering the round
  std::size_t edges_after = 0;    ///< universe size leaving it
  std::size_t bundle_edges = 0;   ///< edges the t-bundle kept outright
  std::size_t sampled_edges = 0;  ///< off-bundle edges the coins kept
  std::size_t t_used = 0;         ///< bundle width the round ran at
};

/// The sparsifier of parallel_sparsify and its round statistics.
struct SparsifyResult {
  graph::Graph sparsifier;         ///< the final edge universe
  std::vector<RoundStats> rounds;  ///< one entry per round run
  std::size_t rounds_planned = 0;  ///< ceil(log2 rho)
  double per_round_epsilon = 0.0;  ///< epsilon / rounds_planned
};

/// Round statistics of an in-place parallel_sparsify_rounds run (everything
/// SparsifyResult carries except the materialized Graph).
struct SparsifyRoundsResult {
  std::vector<RoundStats> rounds;  ///< one entry per round run
  std::size_t rounds_planned = 0;  ///< ceil(log2 rho)
  double per_round_epsilon = 0.0;  ///< epsilon / rounds_planned
};

/// The PARALLELSPARSIFY round loop executed in place on an existing context:
/// ctx's arena shrinks to the sparsifier, no Graph is materialized. This is
/// the shared core behind parallel_sparsify(Graph) and the sparsifier
/// towers' passes (tower.hpp), so both emit bit-identical edge universes for
/// the same (input, options).
SparsifyRoundsResult parallel_sparsify_rounds(RoundContext& ctx,
                                              const SparsifyOptions& options);

/// Algorithm 2 on a Graph: the round loop on a fresh RoundContext.
SparsifyResult parallel_sparsify(const graph::Graph& g, const SparsifyOptions& options);

}  // namespace spar::sparsify
