// The core both sparsifier towers share: the insert-only merge-and-reduce
// tower (stream.hpp) and the turnstile tower (dynamic.hpp).
//
// Both rest on PARALLELSPARSIFY composing: a sparsifier of a union of
// sparsified pieces still approximates the union, with the pieces' errors
// combined (Section 2's approximation relation is transitive up to
// multiplied error). What is the same in both towers lives here:
//
//  * TowerOptions, the pass settings every tower exposes;
//  * TowerPasses, the only place a tower runs parallel_sparsify_rounds. Pass
//    i runs at seed mix64(mix64(seed, tag), i), where the tag names the tower,
//    so the pass sequence is a pure function of the tower's own schedule;
//  * the log-budget arithmetic: a tower splits log(1 + eps) into shares, a
//    pass over a sketch ADDS its log(1 + pass eps), and a union of sketches of
//    disjoint edge sets takes the MAX of their log errors (LogError);
//  * the slot scans over a vector of levels with an `occupied` flag.
//
// The towers keep only their policy: binary-counter carry and flush for the
// stream tower; exact segments, the edge directory and staleness for the
// dynamic one. See DESIGN.md ("merge-and-reduce streaming tower").
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/edge_view.hpp"
#include "support/work_counter.hpp"

namespace spar::sparsify {

/// Pass settings shared by StreamOptions and DynamicOptions.
struct TowerOptions {
  double epsilon = 0.5;            ///< end-to-end target, split across passes
  double rho = 4.0;                ///< per-pass sparsification factor
  std::size_t t = 3;               ///< per-round bundle width; 0 = theory value
  double keep_probability = 0.25;  ///< off-bundle keep probability per round
  std::uint64_t seed = 1;          ///< tower seed; every pass seed derives from it
  support::WorkCounter* work = nullptr;  ///< optional work accounting sink
};

/// Per-pass epsilon when `passes` passes split a `share` of the log-budget
/// log(1 + epsilon): (1 + epsilon)^(share / passes) - 1.
double budget_epsilon(double epsilon, double share, std::size_t passes);

/// Composed error bound of a sketch, held as log(1 + eps).
struct LogError {
  double value = 0.0;  ///< log(1 + eps); 0 for exact edges

  /// The bound after one more pass at `eps` over the sketch.
  LogError after_pass(double eps) const { return {value + std::log1p(eps)}; }
  /// A union with a sketch of a disjoint edge set: the larger bound holds.
  void join(LogError other) { value = std::max(value, other.value); }
  /// The bound as a relative error: exp(value) - 1.
  double epsilon() const { return std::expm1(value); }
};

/// Runs a tower's sparsify passes with its seed schedule and counts the
/// edges that enter them.
class TowerPasses {
 public:
  /// Validates the shared settings; `seed_tag` keeps different towers built
  /// from one seed on disjoint pass seeds.
  TowerPasses(const TowerOptions& options, std::uint64_t seed_tag);

  /// One in-place PARALLELSPARSIFY round loop over `edges` at `epsilon`.
  graph::EdgeArena reduce(graph::EdgeArena edges, double epsilon);
  /// Copying variant: the caller keeps `edges`.
  graph::EdgeArena reduce(const graph::EdgeView& edges, double epsilon);

  /// Edges that entered a pass so far.
  std::uint64_t reduced_edges() const { return reduced_edges_; }

 private:
  TowerOptions opt_;
  std::uint64_t seed_base_ = 0;
  std::size_t passes_ = 0;
  std::uint64_t reduced_edges_ = 0;
};

/// Index of the first unoccupied level (levels.size() when all are full).
template <class Level>
std::size_t first_free_level(const std::vector<Level>& levels) {
  std::size_t j = 0;
  while (j < levels.size() && levels[j].occupied) ++j;
  return j;
}

/// Number of occupied levels.
template <class Level>
std::size_t occupied_levels(const std::vector<Level>& levels) {
  return static_cast<std::size_t>(std::count_if(
      levels.begin(), levels.end(), [](const Level& l) { return l.occupied; }));
}

/// One past the highest occupied level (0 for an empty tower).
template <class Level>
std::size_t level_top(const std::vector<Level>& levels) {
  std::size_t top = levels.size();
  while (top > 0 && !levels[top - 1].occupied) --top;
  return top;
}

}  // namespace spar::sparsify
