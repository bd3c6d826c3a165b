#include "sparsify/stream.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "support/assert.hpp"

namespace spar::sparsify {

using graph::EdgeArena;
using graph::EdgeView;
using graph::Graph;

namespace {

constexpr std::uint64_t kStreamSeedTag = 0x73747265616dULL;  // "stream"

/// Sparsify passes an edge can take under a plan of `batches` (>= 1) batches
/// with `cap` (>= 1) resident levels: up to ceil(log2 B) carries, one flush,
/// one spare pass of headroom (the flush can land above the natural top),
/// and -- when the cap is tighter than the natural tower height, so
/// collapses actually fire -- one extra pass per collapse.
/// A collapse resets the tower to one sketch and the next needs cap more
/// batches, so collapses <= batches / cap. With cap >= ceil(log2 B) + 1 the
/// counter never overflows the cap and the budget is the pure log bound.
std::size_t planned_depth(std::size_t batches, std::size_t cap) {
  const auto log_b = static_cast<std::size_t>(std::bit_width(batches - 1));
  return log_b + 2 + (cap >= log_b + 1 ? 0 : batches / cap);
}

/// Batches a stream of `edges` edges fills at `batch_edges` per batch (>= 1).
std::size_t batch_plan(std::size_t edges, std::size_t batch_edges) {
  SPAR_CHECK(batch_edges > 0, "stream_sparsify: batch_edges must be positive");
  return std::max<std::size_t>(1, (edges + batch_edges - 1) / batch_edges);
}

}  // namespace

StreamSparsifier::StreamSparsifier(graph::Vertex num_vertices,
                                   std::size_t planned_batches,
                                   const StreamOptions& options)
    : n_(num_vertices),
      planned_batches_(planned_batches),
      opt_(options),
      passes_(options, kStreamSeedTag) {
  SPAR_CHECK(planned_batches_ >= 1, "stream_sparsify: planned_batches must be >= 1");
  SPAR_CHECK(opt_.batch_edges > 0, "stream_sparsify: batch_edges must be positive");
  SPAR_CHECK(opt_.max_resident_levels >= 1,
             "stream_sparsify: max_resident_levels must be >= 1");
  report_.batch_edges = opt_.batch_edges;
  report_.depth_planned = planned_depth(planned_batches_, opt_.max_resident_levels);
  report_.per_level_epsilon = budget_epsilon(opt_.epsilon, 1.0, report_.depth_planned);
}

void StreamSparsifier::note_resident(std::size_t extra) {
  std::size_t total = extra;
  for (const Level& level : levels_)
    if (level.occupied) total += level.arena.size();
  report_.peak_resident_edges = std::max(report_.peak_resident_edges, total);
}

void StreamSparsifier::reduce_into(std::size_t target, std::size_t top_level,
                                   const EdgeView* batch) {
  const std::size_t batch_size = batch != nullptr ? batch->size : 0;

  // Concatenate oldest-first: the highest level covers the earliest batches.
  // Moving the top level into the merge arena (instead of copying it) keeps
  // the transient overhead to one lower level at a time; each appended level
  // is released as soon as its edges are copied.
  EdgeArena merged;
  std::size_t batches_covered = 0;
  std::size_t depth = 0;
  LogError error;
  for (std::size_t i = top_level + 1; i-- > 0;) {
    Level& level = levels_[i];
    if (!level.occupied) continue;
    if (merged.size() == 0 && merged.num_vertices() == 0) {
      merged = std::move(level.arena);
    } else {
      // Transient: merged + the level being copied + this level's original.
      note_resident(batch_size + merged.size() + level.arena.size());
      merged.append(level.arena.view());
    }
    batches_covered += level.batches;
    depth = std::max(depth, level.depth);
    error.join(level.error);
    level = Level{};  // releases the arena and frees the slot
  }
  if (batch != nullptr) {
    if (merged.num_vertices() == 0 && merged.size() == 0) merged.resize(n_, 0);
    merged.append(*batch);
    batches_covered += 1;
  }
  // The caller's batch buffer coexists with its copy inside `merged`.
  note_resident(batch_size + merged.size());

  // One PARALLELSPARSIFY pass at the per-level budget; the pass sequence is
  // a pure function of the arrival sequence.
  if (target >= levels_.size()) levels_.resize(target + 1);
  Level& dst = levels_[target];
  dst.arena = passes_.reduce(std::move(merged), report_.per_level_epsilon);
  dst.batches = batches_covered;
  dst.depth = depth + 1;
  dst.error = error.after_pass(report_.per_level_epsilon);
  dst.occupied = true;
  max_error_.join(dst.error);
  report_.merge_edges = passes_.reduced_edges();

  report_.sparsify_calls += 1;
  if (report_.sparsify_calls_per_level.size() <= target)
    report_.sparsify_calls_per_level.resize(target + 1, 0);
  report_.sparsify_calls_per_level[target] += 1;
  report_.levels_used = std::max(report_.levels_used, target + 1);
  report_.depth_used = std::max(report_.depth_used, dst.depth);
}

void StreamSparsifier::ingest(const EdgeView& batch, EdgeArena* owned) {
  SPAR_CHECK(!finished_, "stream_sparsify: push_batch after finish");
  SPAR_CHECK(batch.num_vertices == n_,
             "stream_sparsify: batch vertex count mismatch");
  // A planned budget is split for exactly planned_batches batches; pushing
  // more would deepen the tower past depth_planned and silently void the
  // composed (1 +- eps) guarantee. Overflow is a caller bug, not a rescale.
  SPAR_CHECK(report_.batches < planned_batches_,
             "stream_sparsify: more batches pushed than planned_batches = " +
                 std::to_string(planned_batches_));

  report_.batches += 1;
  report_.edges_ingested += batch.size;
  note_resident(batch.size);

  // Binary-counter step with multiway carry: j = first free level; the batch
  // plus levels 0..j-1 (together <= 2^j batches) become the level-j sketch in
  // one pass. j == 0 lands the batch raw -- moved in when the tower owns the
  // buffer, copied otherwise.
  const std::size_t j = first_free_level(levels_);
  if (j == 0) {
    if (levels_.empty()) levels_.resize(1);
    Level& slot = levels_[0];
    if (owned != nullptr) {
      slot.arena = std::move(*owned);  // zero-copy landing; `batch` is dead now
    } else {
      slot.arena.resize(n_, 0);
      slot.arena.append(batch);
      note_resident(batch.size);  // caller's buffer + its level-0 copy
    }
    slot.batches = 1;
    slot.depth = 0;
    slot.occupied = true;
    report_.levels_used = std::max<std::size_t>(report_.levels_used, 1);
  } else {
    reduce_into(j, j - 1, &batch);
    if (owned != nullptr) owned->release();
  }

  // Resident-level cap: collapse the whole tower into one sketch above the
  // current top. Coverage stays <= 2^(top+1), so the level invariant holds,
  // and the collapse is one pass for every participating edge.
  if (occupied_levels(levels_) > opt_.max_resident_levels) {
    const std::size_t top = level_top(levels_);
    reduce_into(top, top - 1, nullptr);
  }
}

void StreamSparsifier::push_batch(const EdgeView& batch) { ingest(batch, nullptr); }

void StreamSparsifier::push_batch(EdgeArena&& batch) {
  ingest(batch.view(), &batch);
}

StreamResult StreamSparsifier::finish() {
  SPAR_CHECK(!finished_, "stream_sparsify: finish called twice");
  finished_ = true;

  StreamResult result;
  const std::size_t top = level_top(levels_);
  if (top == 0) {
    result.sparsifier = Graph(n_);  // empty stream
  } else {
    // Final flush: concatenate every surviving level and reduce once more, so
    // the output gets the same compression treatment regardless of whether
    // the batch count was a power of two.
    reduce_into(top, top - 1, nullptr);
    result.sparsifier = levels_[top].arena.to_graph();
    levels_[top] = Level{};
  }
  report_.final_edges = result.sparsifier.num_edges();
  // Exact composed budget along the deepest merge chain.
  report_.epsilon_budget_used = max_error_.epsilon();
  result.report = report_;
  return result;
}

StreamResult stream_sparsify(const EdgeView& edges, const StreamOptions& options) {
  StreamSparsifier tower(edges.num_vertices,
                         batch_plan(edges.size, options.batch_edges), options);
  for (std::size_t at = 0; at < edges.size; at += options.batch_edges)
    tower.push_batch(edges.slab(at, std::min(edges.size, at + options.batch_edges)));
  return tower.finish();
}

StreamResult stream_sparsify(graph::EdgeStream& stream, const StreamOptions& options) {
  StreamSparsifier tower(stream.num_vertices(),
                         batch_plan(stream.num_edges(), options.batch_edges), options);
  for (;;) {
    EdgeArena batch;
    if (stream.next_batch(batch, options.batch_edges) == 0) break;
    tower.push_batch(std::move(batch));  // tower adopts: one resident copy
  }
  return tower.finish();
}

StreamResult stream_sparsify_file(const std::string& path, const StreamOptions& options) {
  const auto stream = graph::open_edge_stream(path);
  return stream_sparsify(*stream, options);
}

}  // namespace spar::sparsify
