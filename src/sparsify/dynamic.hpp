// Fully dynamic sparsification: a certified (1 +- eps) sparsifier maintained
// under a mixed insert/delete edge-update stream (graph/update_stream.hpp).
//
// The insert-only streaming tower (stream.hpp) cannot delete: a sketch keeps
// a sampled, reweighted subset, so the edge a delete names may be gone or may
// carry w/p. DynamicSparsifier therefore keeps, per tower level, BOTH
//
//  * the EXACT live-edge segment of that level (an EdgeArena of original
//    weights) -- deletions compact it exactly, and
//  * a cached SKETCH of the segment (one parallel_sparsify_rounds pass over
//    the exact edges), which is what checkpoints serve. Segments a pass
//    could not compress -- smaller than sketch_min_edges, or sparser than
//    sketch_density edges per (t x touched vertex), where the t-spanner
//    bundle would keep everything anyway -- serve their exact edges and
//    carry zero error.
//
// Updates batch through a guttering buffer (GraphStreamingCC's ingest shape:
// DynamicOptions::batch_updates per tower batch, so batch boundaries are a
// pure function of the update sequence, independent of arrival chunking).
// Applying a batch:
//
//  1. Cancellation scan: an insert-then-delete pair inside the batch
//     annihilates before touching the tower (the turnstile contract makes
//     this exact). Duplicate inserts and deletes of absent edges are
//     diagnosed spar::Error.
//  2. Deletes route through the edge directory (packed (u,v) key -> weight +
//     owning level; lookups only, never iterated) to their levels: the exact
//     segment and any cached sketch are compacted, removing those keys.
//  3. Inserts land as a NEW level in the first free slot. No eager merging:
//     the union of per-level sparsifiers over disjoint edge sets composes
//     its error as a MAX across levels, not a sum, so merging untouched
//     levels would only force checkpoints to re-reduce edges that never
//     changed -- the tower merges only when the resident-level cap
//     (max_resident_levels) is exceeded or a rebuild collapses it. Sketches
//     are built LAZILY at checkpoint, so a level that is deleted or merged
//     away before ever serving costs no sparsify pass, and a checkpoint's
//     cost is proportional to the edges CHANGED since the last serving, not
//     to the live graph.
//
// Staleness/eps budget. A sketch computed before some of its segment's edges
// were deleted is STALE: compacting the deleted keys out of it leaves the
// survivors' sampled weights calibrated for the old segment. The distortion
// is charged as log(1 + 2r), r = deleted_weight / weight_at_reduce -- the
// deleted fraction of the segment's total weight at sketch time, doubled to
// cover both pencil sides. The log-error budget log(1 + eps) splits
//
//     (1 - s)/2  level pass  +  s  staleness  +  (1 - s)/2  headroom
//
// (s = kStalenessShare), so every pass runs at eps_pass =
// (1 + eps)^((1 - s)/2) - 1, and a level whose charge would exceed the
// staleness share -- or whose deleted fraction exceeds kMaxStaleness -- drops
// its sketch and is re-reduced from its (exact, already-compacted) segment at
// the next checkpoint. A checkpoint serves the UNION of the per-level serving
// views, so the composed error of any edge is at most one level pass plus
// the staleness allowance, i.e. certified_epsilon <= eps by construction, for
// any update sequence. When one batch dirties segments holding >=
// kRebuildFraction of the live edges, patching level by level is pointless
// and the tower collapses into a single level (stats().rebuilds) -- the
// incremental-vs-rebuild crossover E17 measures. The named constants live in
// dynamic.cpp; passes, seeds and the log-error bookkeeping run on the shared
// tower core (tower.hpp).
//
// Determinism: batch boundaries, carry targets, and compactions are pure
// functions of (update sequence, options); every sparsify pass runs the
// counter-based per-edge coins at seed mix64(base, pass index); hash
// containers are used for lookup only, never iterated. Checkpoints are
// bit-identical across thread counts and the OpenMP-off build (golden-hash
// tests in tests/sparsify/test_dynamic.cpp); against a from-scratch
// parallel_sparsify oracle of the surviving edges they certify within the
// same eps (tests/sparsify/test_dynamic_oracle.cpp). See DESIGN.md
// ("fully dynamic sparsification").
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/edge_view.hpp"
#include "graph/graph.hpp"
#include "graph/update_stream.hpp"
#include "sparsify/tower.hpp"

namespace spar::sparsify {

/// Dynamic tower settings: the shared pass settings plus the gutter size
/// and the exact-serving floor.
struct DynamicOptions : TowerOptions {
  /// Updates gathered in the gutter before one tower batch is applied; the
  /// unit that makes batch boundaries arrival-chunking-invariant.
  std::size_t batch_updates = std::size_t{1} << 16;
  /// Segments below this size serve their exact edges (zero error, no pass).
  std::size_t sketch_min_edges = 4096;
};

/// Ingest and reduce traffic of a dynamic tower.
struct DynMetrics {
  std::uint64_t updates_ingested = 0;  ///< updates pushed, before cancellation
  std::uint64_t reduce_edges = 0;      ///< edges entering sparsify passes
};

/// What a dynamic tower did so far.
struct DynStats {
  std::uint64_t inserts_applied = 0;   ///< tower inserts (post-cancellation)
  std::uint64_t deletes_applied = 0;   ///< tower deletes (post-cancellation)
  std::uint64_t cancelled_pairs = 0;   ///< insert+delete annihilated in-batch
  std::size_t batches = 0;             ///< gutter flushes into the tower
  std::size_t levels_dirtied = 0;      ///< level visits by a delete compaction
  std::size_t carry_reduces = 0;       ///< sketch passes after carry/collapse
  std::size_t re_reduces = 0;          ///< sketch passes forced by staleness
  std::size_t rebuilds = 0;            ///< full tower collapses
  std::size_t checkpoints = 0;         ///< checkpoint() calls
  std::size_t live_edges = 0;          ///< current surviving edge count
  std::size_t peak_resident_edges = 0; ///< max exact+sketch+gutter held
  std::size_t levels_used = 0;         ///< highest occupied level + 1, over run
  double per_pass_epsilon = 0.0;       ///< eps_pass every pass runs at
  double stale_epsilon_budget = 0.0;   ///< eps-equivalent staleness allowance
  double max_composed_epsilon = 0.0;   ///< worst certified bound returned
  DynMetrics metrics;                  ///< ingest and reduce traffic
};

/// One serving of the maintained sparsifier: the union of the per-level
/// serving views, plus the certified composed error bound.
struct DynCheckpoint {
  graph::Graph sparsifier;         ///< union of the per-level serving views
  double certified_epsilon = 0.0;  ///< composed bound; 0 when all serve exact
};

/// A (1 +- eps) sparsifier maintained under turnstile inserts and deletes.
class DynamicSparsifier {
 public:
  /// Validates the options; needs at least one vertex.
  DynamicSparsifier(graph::Vertex num_vertices, const DynamicOptions& options);

  /// Queue one insert; the gutter flushes into the tower every batch_updates.
  void push_insert(graph::Vertex u, graph::Vertex v, double w);
  /// Queue one delete of a live edge.
  void push_delete(graph::Vertex u, graph::Vertex v);
  /// Queue a whole batch (same gutter boundaries as per-update pushes). An
  /// opcode other than insert or delete throws.
  void apply(const graph::UpdateBatch& updates);

  /// Apply a partial gutter now (checkpoint() and live_graph() call this).
  void flush();

  /// Serve the sparsifier: flushes, lazily (re-)reduces dirty levels --
  /// collapsing the tower first when they hold >= kRebuildFraction of the
  /// live edges -- then returns the union of the per-level serving views.
  /// Non-destructive: the tower keeps its segments and sketches, so a
  /// checkpoint over a clean tower costs only the concatenation.
  DynCheckpoint checkpoint();

  /// The exact surviving edge multiset (flushes first). Oracle input.
  graph::Graph live_graph();

  /// Number of currently live edges.
  std::size_t live_edges() const { return directory_.size(); }

  /// Force a full collapse: every live edge into one exact segment.
  void rebuild();

  /// Running counters.
  const DynStats& stats() const { return stats_; }
  /// The options the tower was built with.
  const DynamicOptions& options() const { return opt_; }

 private:
  struct Level {
    graph::EdgeArena exact;   ///< live edges of this level, original weights
    graph::EdgeArena sketch;  ///< cached reduce of `exact`; valid iff has_sketch
    bool occupied = false;
    bool has_sketch = false;
    bool stale = false;  ///< sketch dropped for staleness: next pass re-reduces
    double weight_at_reduce = 0.0;  ///< exact total weight when sketch was built
    double deleted_weight = 0.0;    ///< weight deleted from it since
  };

  struct DirEntry {
    double weight = 0.0;       ///< original insert weight
    std::uint32_t level = 0;   ///< owning tower level
  };

  void apply_batch(const graph::UpdateBatch& batch);
  /// Land `batch` (may be empty) as a new level in the first free slot,
  /// then collapse the tower if the resident-level cap is exceeded.
  void carry_inserts(graph::EdgeArena&& batch);
  /// Fill the free `slot` with an exact, sketchless segment and point the
  /// directory entries of its edges at it.
  void land(std::size_t slot, graph::EdgeArena&& edges);
  /// Collapse every occupied level into one exact segment (rebuilds++).
  void collapse_tower();
  /// One sparsify pass over `level`'s exact segment.
  void build_sketch(Level& level);
  /// Would a pass over this segment actually compress it? (Size and density
  /// gates: small or bundle-covered segments serve exact instead.)
  bool worth_sketching(const Level& level) const;
  double staleness_charge(const Level& level) const;
  /// Raise the peak-resident count to the gutter plus every held arena.
  void note_resident();

  graph::Vertex n_ = 0;
  DynamicOptions opt_;
  TowerPasses passes_;
  double stale_budget_ = 0.0;  ///< staleness share of log(1 + epsilon)
  double eps_pass_ = 0.0;
  graph::UpdateBatch gutter_;
  std::vector<Level> levels_;
  std::unordered_map<std::uint64_t, DirEntry> directory_;
  DynStats stats_;
};

/// A whole-stream run: the final checkpoint and the tower's counters.
struct DynResult {
  graph::Graph sparsifier;         ///< the final checkpoint's sparsifier
  double certified_epsilon = 0.0;  ///< its certified bound
  DynStats stats;                  ///< counters at the end of the run
};

/// Drive a whole update stream through a DynamicSparsifier and serve one
/// final checkpoint. What `sparsify_tool --updates` runs.
DynResult dynamic_sparsify(graph::UpdateStream& updates, const DynamicOptions& options);

}  // namespace spar::sparsify
