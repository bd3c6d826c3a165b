// Zero-copy state for the PARALLELSPARSIFY round loop.
//
// Algorithm 2 runs ceil(log2 rho) rounds of PARALLELSAMPLE over a shrinking
// edge universe. Pre-refactor each round copied the input Graph, rebuilt a
// CSRGraph from scratch, and emitted its output through a serial add_edge
// loop -- O(m) serial work and three O(m) allocations per round. RoundContext
// owns the state that instead persists ACROSS rounds:
//
//  * the SoA EdgeArena holding the current universe, mutated in place
//    (sampled edges reweight w *= 1/p, survivors compact down, drops vanish),
//  * the CSR adjacency scratch, rebuilt each round into the same buffers,
//  * the per-edge verdict buffer the classification pass writes.
//
// A round therefore allocates nothing in steady state, and the edge ids it
// works with are exactly the ranks the old serial append assigned, so the
// output is bit-identical to the pre-refactor pipeline (pinned by the
// golden-hash test in tests/integration/test_parallel_determinism.cpp).
//
// Graph objects appear only at the API boundary: RoundContext(Graph) on the
// way in, arena().to_graph() on the way out. Both the shared-memory round
// (sparsify::parallel_sample_round) and the distributed simulator's round
// (dist/dist_spanner.cpp) drive this same context through the same
// sample_core.hpp verdict/compaction core, which is what keeps the two
// pipelines bit-identical by construction. See DESIGN.md ("round-pipeline
// memory model").
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/edge_view.hpp"
#include "graph/graph.hpp"

namespace spar::sparsify {

/// The arena, CSR scratch and verdict buffer one round loop reuses.
class RoundContext {
 public:
  /// Copy a Graph's edges in (boundary conversion).
  explicit RoundContext(const graph::Graph& g) : arena_(g) {}

  /// Adopt an already-populated arena (zero-copy entry for callers that never
  /// had a Graph -- the streaming merge-and-reduce tower concatenates level
  /// arenas and hands the result straight to the round loop).
  explicit RoundContext(graph::EdgeArena arena) : arena_(std::move(arena)) {}

  /// The current edge universe; the round loop shrinks it in place.
  graph::EdgeArena& arena() { return arena_; }
  /// Read-only view of the current edge universe.
  const graph::EdgeArena& arena() const { return arena_; }

  /// Vertex count of the universe.
  graph::Vertex num_vertices() const { return arena_.num_vertices(); }
  /// Edges left in the universe.
  std::size_t num_edges() const { return arena_.size(); }

  /// Rebuild the CSR scratch from the arena's active slab, reusing buffers.
  /// The result is identical to CSRGraph(arena().to_graph()).
  const graph::CSRGraph& rebuild_csr() {
    csr_.rebuild(arena_.view());
    return csr_;
  }

  /// Per-edge verdict buffer (kDrop/kBundle/kSampled), reused across rounds.
  std::vector<std::uint8_t>& verdict() { return verdict_; }

 private:
  graph::EdgeArena arena_;
  graph::CSRGraph csr_;
  std::vector<std::uint8_t> verdict_;
};

/// Statistics of one in-place PARALLELSAMPLE round.
struct SampleRoundStats {
  std::size_t edges_before = 0;      ///< universe size entering the round
  std::size_t edges_after = 0;       ///< universe size leaving it
  std::size_t bundle_edges = 0;      ///< edges the t-bundle kept outright
  std::size_t off_bundle_edges = 0;  ///< candidates for sampling
  std::size_t sampled_edges = 0;     ///< coin flips that kept the edge
  std::size_t t_used = 0;            ///< bundle width the round ran at
};

}  // namespace spar::sparsify
