// Merge-and-reduce streaming sparsification.
//
// PARALLELSPARSIFY composes: a sparsifier of a union of graph pieces can
// itself be sparsified, and the result still approximates the union (Section
// 2's approximation relation is transitive up to multiplied error). That is
// exactly the classic semi-streaming merge-and-reduce recipe (Goel-Kapralov-
// Khanna refinement sampling; Baswana's streaming spanners): consume the edge
// stream in bounded batches and maintain a binary-counter tower of level
// sketches, where the level-i sketch is a sparsifier of the union of at most
// 2^i batches.
//
//  * An arriving batch lands raw at level 0 when that slot is free.
//  * Otherwise the batch and the occupied levels 0..j-1 (j = first free
//    level) are concatenated -- oldest edges first, so the merged arena is
//    the edge list a serial arrival-order append would build -- and reduced
//    by ONE in-place PARALLELSPARSIFY round loop (parallel_sparsify_rounds)
//    into the level-j sketch. The multiway merge costs every participating
//    edge a single sparsify pass, so an edge's pass count never exceeds its
//    sketch's level.
//  * A resident-level cap (StreamOptions::max_resident_levels) collapses the
//    whole tower into one higher-level sketch when too many levels are
//    occupied, which bounds peak memory at ~(cap sketches + 1 batch) without
//    deepening the tower (a collapse is also one pass).
//  * finish() concatenates the surviving levels and runs one last reduce:
//    the final sparsifier plus a StreamReport.
//
// Epsilon budget: the planned batch count B is a constructor argument (the
// drivers derive it from the stream length). With cap resident levels an
// edge participates in at most D sparsify passes, where D = ceil(log2 B) + 2
// (up to ceil(log2 B) carries, the final flush, and one spare pass of
// headroom for the flush landing above the natural top) when the cap is at
// least the natural tower height ceil(log2 B) + 1, plus one pass per cap
// collapse (at most B / cap of them) when the cap binds -- bounded memory is
// bought with budget depth.
// Each pass runs at eps_level = (1 + eps)^(1/D) - 1, so the composed error is
// at most (1 + eps_level)^D = 1 + eps on the upper side, and on the lower
// side (1 - eps_level)^D >= 1 - D*eps_level >= 1 - eps since eps_level <=
// eps/D by concavity. The report records both the planned depth and the
// depth actually used; passes, seeds and the log-error bookkeeping run on
// the shared tower core (tower.hpp). See DESIGN.md ("merge-and-reduce
// streaming tower").
//
// Determinism: batch boundaries are a pure function of (source, batch_edges),
// concatenation order is a pure function of the arrival sequence, and every
// reduce pass runs the round pipeline's counter-based per-edge coins -- so
// the final sparsifier is bit-identical for any thread count and for the
// OpenMP-off build, for a fixed (seed, batch size).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge_view.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "sparsify/tower.hpp"

namespace spar::sparsify {

/// Stream tower settings: the shared pass settings plus the batch and
/// resident-memory policy.
struct StreamOptions : TowerOptions {
  /// Batch granularity: the unit of resident memory.
  std::size_t batch_edges = std::size_t{1} << 17;
  /// Collapse the tower once more than this many level sketches are
  /// resident: peak memory ~ (cap sketches + 1 batch). A cap below the
  /// natural tower height ceil(log2 B) + 1 widens the planned depth by the
  /// collapse allowance B / cap (see planned_depth in stream.cpp) -- tighter
  /// memory is bought with epsilon budget.
  std::size_t max_resident_levels = 3;
};

/// What one streamed run did.
struct StreamReport {
  std::size_t batches = 0;         ///< batches pushed
  std::size_t batch_edges = 0;     ///< granularity the run used
  std::size_t levels_used = 0;     ///< highest occupied level + 1, over the run
  std::size_t depth_planned = 0;   ///< sparsify passes budgeted per edge
  std::size_t depth_used = 0;      ///< passes the deepest edge actually took
  double per_level_epsilon = 0.0;  ///< uniform per-pass eps of the plan
  /// Exact composed budget along the deepest merge chain:
  /// exp(max over levels of sum of log(1 + pass eps)) - 1. Always <= epsilon.
  double epsilon_budget_used = 0.0;
  std::size_t sparsify_calls = 0;  ///< reduce passes run
  std::vector<std::size_t> sparsify_calls_per_level;  ///< by target level
  std::size_t peak_resident_edges = 0;  ///< max simultaneously held edges
  std::size_t final_edges = 0;          ///< edges of the final sparsifier
  std::uint64_t edges_ingested = 0;     ///< edges pushed: the inbound traffic
  std::uint64_t merge_edges = 0;        ///< edges entering reduce passes
};

/// The final sparsifier of a streamed run and its report.
struct StreamResult {
  graph::Graph sparsifier;  ///< flushed tower output
  StreamReport report;      ///< what the run did
};

/// Incremental push API: feed batches, then finish() exactly once.
class StreamSparsifier {
 public:
  /// The eps budget is split for exactly `planned_batches` (>= 1) batches;
  /// pushing more throws.
  StreamSparsifier(graph::Vertex num_vertices, std::size_t planned_batches,
                   const StreamOptions& options);

  /// Fold the next batch of the stream into the tower. Batches must share the
  /// constructor's vertex count; the view is copied, the caller's buffer can
  /// be reused immediately.
  void push_batch(const graph::EdgeView& batch);

  /// Move-in variant: the tower adopts the arena (a free level-0 landing is
  /// zero-copy, and the batch is never resident twice). This is what the
  /// EdgeStream driver uses, so file streaming holds each batch exactly once.
  void push_batch(graph::EdgeArena&& batch);

  /// Flush the tower into the final sparsifier. The object is spent after.
  StreamResult finish();

  /// Running report (final_edges/depth_used filled in by finish()).
  const StreamReport& report() const { return report_; }

 private:
  struct Level {
    graph::EdgeArena arena;
    std::size_t batches = 0;  ///< batches covered; <= 2^level
    std::size_t depth = 0;    ///< max sparsify passes any contained edge took
    LogError error;           ///< max composed error along any edge's passes
    bool occupied = false;
  };

  /// Raise the peak-resident count to the held levels plus `extra` edges.
  void note_resident(std::size_t extra);
  /// Shared core of both push_batch overloads; `owned` non-null when the
  /// tower may adopt the batch's buffers.
  void ingest(const graph::EdgeView& batch, graph::EdgeArena* owned);
  /// Concatenate levels [0, top] (descending, oldest first) plus `batch`
  /// (null = none) and reduce with one round-loop pass into level `target`.
  void reduce_into(std::size_t target, std::size_t top_level,
                   const graph::EdgeView* batch);

  graph::Vertex n_ = 0;
  std::size_t planned_batches_ = 0;
  StreamOptions opt_;
  TowerPasses passes_;
  LogError max_error_;  ///< deepest composed error so far
  std::vector<Level> levels_;
  StreamReport report_;
  bool finished_ = false;
};

/// Sparsify a resident edge set through the streaming tower (slab-order
/// batches of options.batch_edges, planned for exactly that many batches).
/// Decoupled-memory semantics aside, this is the reference the file drivers
/// must match bit for bit.
StreamResult stream_sparsify(const graph::EdgeView& edges, const StreamOptions& options);

/// Drive the tower from any batched edge source.
StreamResult stream_sparsify(graph::EdgeStream& stream, const StreamOptions& options);

/// Open `path` (SPARBIN / edge-list text / MatrixMarket, auto-detected) as a
/// batched stream and sparsify it without ever holding the whole graph
/// (MatrixMarket excepted -- its symmetry reconciliation is global).
StreamResult stream_sparsify_file(const std::string& path, const StreamOptions& options);

}  // namespace spar::sparsify
