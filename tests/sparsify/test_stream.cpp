// Merge-and-reduce streaming sparsifier: tower invariants, source
// equivalence (in-memory vs text vs binary streams), golden-hash determinism
// across thread counts, and the cross-batch-size quality bound.
#include "sparsify/stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/io_binary.hpp"
#include "graph/traversal.hpp"
#include "sparsify/sparsify.hpp"
#include "sparsify/spectral_cert.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace spar::sparsify {
namespace {

using graph::EdgeArena;
using graph::Graph;

/// Order-insensitive, bit-exact fingerprint of (n, edge multiset): FNV-1a
/// over the normalized sorted edge list, weights by IEEE-754 bit pattern.
/// Same scheme as tests/integration/test_parallel_determinism.cpp.
std::uint64_t edge_multiset_hash(const Graph& g) {
  std::vector<graph::Edge> es(g.edges().begin(), g.edges().end());
  for (auto& e : es)
    if (e.u > e.v) std::swap(e.u, e.v);
  std::sort(es.begin(), es.end(), [](const graph::Edge& a, const graph::Edge& b) {
    return std::tie(a.u, a.v, a.w) < std::tie(b.u, b.v, b.w);
  });
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  mix(g.num_vertices());
  mix(es.size());
  for (const auto& e : es) {
    mix(e.u);
    mix(e.v);
    std::uint64_t wb = 0;
    std::memcpy(&wb, &e.w, sizeof(wb));
    mix(wb);
  }
  return h;
}

StreamOptions base_options(std::size_t batch_edges, std::uint64_t seed = 7) {
  StreamOptions opt;
  opt.epsilon = 1.0;
  opt.rho = 4.0;
  opt.t = 3;
  opt.seed = seed;
  opt.batch_edges = batch_edges;
  return opt;
}

TEST(StreamSparsify, ReportIsInternallyConsistent) {
  const Graph g = graph::randomize_weights(graph::complete_graph(100), 0.5, 21);
  EdgeArena arena(g);
  const StreamOptions opt = base_options(512);
  const StreamResult r = stream_sparsify(arena.view(), opt);
  const StreamReport& rep = r.report;

  const std::size_t expected_batches = (g.num_edges() + 511) / 512;
  EXPECT_EQ(rep.batches, expected_batches);
  EXPECT_EQ(rep.batch_edges, 512u);
  EXPECT_EQ(rep.edges_ingested, g.num_edges());
  EXPECT_GE(rep.merge_edges, rep.final_edges);  // the final flush alone
  EXPECT_EQ(rep.final_edges, r.sparsifier.num_edges());
  EXPECT_GE(rep.peak_resident_edges, rep.final_edges);
  EXPECT_LE(rep.depth_used, rep.depth_planned);
  EXPECT_GT(rep.per_level_epsilon, 0.0);
  EXPECT_LE(rep.epsilon_budget_used, opt.epsilon + 1e-12);
  std::size_t calls = 0;
  for (const std::size_t c : rep.sparsify_calls_per_level) calls += c;
  EXPECT_EQ(calls, rep.sparsify_calls);
  EXPECT_GE(rep.sparsify_calls, 1u);
}

TEST(StreamSparsify, CertifiesWithinRequestedEpsilonOnSmallConfigs) {
  // The budget argument (DESIGN.md): D passes at (1+eps)^(1/D)-1 compose to
  // at most (1 +- eps). Practical t = 3 keeps the empirical error well
  // inside the budget on these families.
  const struct {
    const char* name;
    Graph g;
  } cases[] = {
      {"complete100", graph::randomize_weights(graph::complete_graph(100), 0.5, 21)},
      {"dumbbell40", graph::dumbbell(40, 0.05, 3)},
      {"er120", graph::connected_erdos_renyi(120, 0.3, 5)},
  };
  for (const auto& c : cases) {
    EdgeArena arena(c.g);
    const StreamOptions opt = base_options(600);
    const StreamResult r = stream_sparsify(arena.view(), opt);
    const ApproxBounds bounds = exact_relative_bounds(c.g, r.sparsifier);
    ASSERT_TRUE(bounds.defined) << c.name;
    EXPECT_GT(bounds.lower, 1.0 - opt.epsilon) << c.name;
    EXPECT_LT(bounds.upper, 1.0 + opt.epsilon) << c.name;
  }
}

TEST(StreamSparsify, KeepsConnectivityOnBridgedGraphs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = graph::dumbbell(30, 0.02);
    EdgeArena arena(g);
    const StreamResult r = stream_sparsify(arena.view(), base_options(128, seed));
    EXPECT_TRUE(graph::is_connected(graph::CSRGraph(r.sparsifier))) << seed;
  }
}

TEST(StreamSparsify, FileStreamsMatchInMemoryBitForBit) {
  const Graph g = graph::randomize_weights(graph::complete_graph(90), 0.5, 17);
  EdgeArena arena(g);
  const StreamOptions opt = base_options(700);
  const StreamResult mem = stream_sparsify(arena.view(), opt);

  const std::string dir = testing::TempDir();
  const std::string text_path = dir + "/spar_stream_eq.txt";
  const std::string bin_path = dir + "/spar_stream_eq.spb";
  graph::save_edge_list(text_path, g);
  graph::save_binary(bin_path, g);
  const StreamResult from_text = stream_sparsify_file(text_path, opt);
  const StreamResult from_bin = stream_sparsify_file(bin_path, opt);
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());

  EXPECT_TRUE(mem.sparsifier.same_edges(from_text.sparsifier));
  EXPECT_TRUE(mem.sparsifier.same_edges(from_bin.sparsifier));
  EXPECT_EQ(mem.report.batches, from_bin.report.batches);
  EXPECT_EQ(mem.report.sparsify_calls, from_bin.report.sparsify_calls);
}

TEST(StreamSparsify, GoldenHashAcrossThreadCounts) {
  // Golden fingerprint recorded from the x86-64 gcc Release build at 1
  // thread. The tower's passes all run on the deterministic round pipeline,
  // so the final sparsifier must be bit-identical for every thread count AND
  // for the OpenMP-off build (this test runs in both CI configurations). If
  // a deliberate algorithm change breaks it, re-record via the recipe in
  // BUILDING.md ("Re-baselining").
  const Graph g = graph::randomize_weights(graph::complete_graph(90), 0.5, 21);
  EdgeArena arena(g);
  const StreamOptions opt = base_options(500, 33);

  constexpr std::uint64_t kGoldenHash = 0xd59ec85435acbb14ULL;
  constexpr std::size_t kGoldenEdges = 1322;

  for (const int threads : {1, 2, 4}) {
    support::par::ThreadLimit limit(threads);
    const StreamResult r = stream_sparsify(arena.view(), opt);
    EXPECT_EQ(r.sparsifier.num_edges(), kGoldenEdges) << threads << " threads";
    EXPECT_EQ(edge_multiset_hash(r.sparsifier), kGoldenHash) << threads << " threads";
  }
}

TEST(StreamSparsify, CrossBatchSizeQualityBound) {
  // Different batch sizes give different (all certified) sparsifiers: the
  // recorded contract is the QUALITY bound, not hash equality.
  const Graph g = graph::randomize_weights(graph::complete_graph(100), 0.5, 9);
  EdgeArena arena(g);
  const std::size_t m = g.num_edges();
  for (const std::size_t batch : {m, m / 2, m / 8, m / 16}) {
    const StreamOptions opt = base_options(batch, 11);
    const StreamResult r = stream_sparsify(arena.view(), opt);
    const ApproxBounds bounds = exact_relative_bounds(g, r.sparsifier);
    ASSERT_TRUE(bounds.defined) << "batch " << batch;
    EXPECT_GT(bounds.lower, 1.0 - opt.epsilon) << "batch " << batch;
    EXPECT_LT(bounds.upper, 1.0 + opt.epsilon) << "batch " << batch;
  }
}

TEST(StreamSparsify, SingleBatchStreamStillSparsifies) {
  const Graph g = graph::complete_graph(80);
  EdgeArena arena(g);
  const StreamResult r = stream_sparsify(arena.view(), base_options(g.num_edges()));
  EXPECT_EQ(r.report.batches, 1u);
  EXPECT_LT(r.sparsifier.num_edges(), g.num_edges());
  EXPECT_TRUE(graph::is_connected(graph::CSRGraph(r.sparsifier)));
}

TEST(StreamSparsify, EmptyAndEdgelessStreams) {
  EdgeArena empty;
  empty.resize(12, 0);
  const StreamResult r = stream_sparsify(empty.view(), base_options(64));
  EXPECT_EQ(r.sparsifier.num_vertices(), 12u);
  EXPECT_EQ(r.sparsifier.num_edges(), 0u);
  EXPECT_EQ(r.report.batches, 0u);
  EXPECT_EQ(r.report.final_edges, 0u);
}

TEST(StreamSparsify, TowerCapBoundsResidentLevels) {
  // With the cap at 1, every second batch collapses the tower, so the peak
  // can never hold more than ~2 sketches + 1 batch. The output must still
  // certify -- collapses are ordinary reduce passes.
  const Graph g = graph::randomize_weights(graph::complete_graph(90), 0.5, 13);
  EdgeArena arena(g);
  StreamOptions opt = base_options(256, 5);
  opt.max_resident_levels = 1;
  const StreamResult capped = stream_sparsify(arena.view(), opt);
  EXPECT_TRUE(graph::is_connected(graph::CSRGraph(capped.sparsifier)));
  const ApproxBounds bounds = exact_relative_bounds(g, capped.sparsifier);
  EXPECT_GT(bounds.lower, 1.0 - opt.epsilon);
  EXPECT_LT(bounds.upper, 1.0 + opt.epsilon);

  StreamOptions uncapped = opt;
  uncapped.max_resident_levels = 64;
  const StreamResult wide = stream_sparsify(arena.view(), uncapped);
  EXPECT_LE(capped.report.peak_resident_edges, wide.report.peak_resident_edges + 256);
}

TEST(StreamSparsify, PushApiMatchesDriverAndGuardsMisuse) {
  const Graph g = graph::randomize_weights(graph::complete_graph(70), 0.5, 19);
  EdgeArena arena(g);
  const StreamOptions opt = base_options(300);
  const StreamResult driver = stream_sparsify(arena.view(), opt);

  const std::size_t plan = (g.num_edges() + 299) / 300;  // the driver's plan
  StreamSparsifier tower(g.num_vertices(), plan, opt);
  const graph::EdgeView view = arena.view();
  for (std::size_t at = 0; at < view.size; at += 300)
    tower.push_batch(view.slab(at, std::min(view.size, at + 300)));
  StreamResult pushed = tower.finish();
  EXPECT_TRUE(driver.sparsifier.same_edges(pushed.sparsifier));

  EXPECT_THROW(tower.push_batch(view.slab(0, 1)), spar::Error);
  EXPECT_THROW(tower.finish(), spar::Error);

  StreamSparsifier other(g.num_vertices() + 1, plan, opt);
  EXPECT_THROW(other.push_batch(view.slab(0, 1)), spar::Error);
}

TEST(StreamSparsify, PlannedPushUnderTightCapStaysInsideEpsilon) {
  // A resident cap of 2 is below the natural tower height, so collapses fire
  // and widen the planned depth -- the deepest budget path. The used depth
  // must fit the plan, and the exactly-tracked composed budget and the
  // measured pencil window must both stay inside the end-to-end epsilon.
  const Graph g = graph::randomize_weights(graph::complete_graph(100), 0.5, 23);
  EdgeArena arena(g);
  StreamOptions opt = base_options(128, 3);
  opt.max_resident_levels = 2;
  StreamSparsifier tower(g.num_vertices(), (g.num_edges() + 127) / 128, opt);
  const graph::EdgeView view = arena.view();
  for (std::size_t at = 0; at < view.size; at += 128)
    tower.push_batch(view.slab(at, std::min(view.size, at + 128)));
  const StreamResult r = tower.finish();
  const StreamReport& rep = r.report;

  EXPECT_EQ(rep.batches, (g.num_edges() + 127) / 128);
  // 39 batches: the uncapped plan is ceil(log2 39) + 2 = 8 passes; the cap
  // widens it by the collapse allowance.
  EXPECT_GT(rep.depth_planned, 8u);
  EXPECT_LE(rep.depth_used, rep.depth_planned);
  EXPECT_GT(rep.per_level_epsilon, 0.0);
  EXPECT_LT(rep.per_level_epsilon, opt.epsilon);
  EXPECT_GT(rep.epsilon_budget_used, 0.0);
  EXPECT_LE(rep.epsilon_budget_used, opt.epsilon + 1e-12);

  const ApproxBounds bounds = exact_relative_bounds(g, r.sparsifier);
  ASSERT_TRUE(bounds.defined);
  EXPECT_GT(bounds.lower, 1.0 - opt.epsilon);
  EXPECT_LT(bounds.upper, 1.0 + opt.epsilon);
}

TEST(StreamSparsify, RejectsBatchesBeyondThePlannedBudget) {
  // A planned eps budget is split for exactly planned_batches batches;
  // ingest() used to accept any number of extra pushes, silently deepening
  // the tower past depth_planned and voiding the composed (1 +- eps) bound.
  const Graph g = graph::randomize_weights(graph::complete_graph(60), 0.5, 29);
  EdgeArena arena(g);
  const graph::EdgeView view = arena.view();
  const StreamOptions opt = base_options(200);
  StreamSparsifier tower(g.num_vertices(), 2, opt);
  tower.push_batch(view.slab(0, 200));
  tower.push_batch(view.slab(200, 400));
  EXPECT_THROW(tower.push_batch(view.slab(400, 600)), spar::Error);
  // The overflow must not corrupt the tower: the planned batches still
  // finish with a sound budget.
  const StreamResult r = tower.finish();
  EXPECT_EQ(r.report.batches, 2u);
  EXPECT_LE(r.report.depth_used, r.report.depth_planned);
  EXPECT_LE(r.report.epsilon_budget_used, opt.epsilon + 1e-12);
}

TEST(StreamSparsify, ExactPlanKeepsDepthAndBudgetSound) {
  // Pushing exactly planned_batches batches (the boundary the overflow check
  // guards) must keep depth_used <= depth_planned and the eps back-fill
  // inside the end-to-end budget, including when the resident cap forces
  // collapse passes.
  const Graph g = graph::randomize_weights(graph::complete_graph(80), 0.5, 31);
  EdgeArena arena(g);
  const graph::EdgeView view = arena.view();
  for (const std::size_t cap : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    StreamOptions opt = base_options(250, 13);
    opt.max_resident_levels = cap;
    const std::size_t plan = (view.size + 249) / 250;
    StreamSparsifier tower(g.num_vertices(), plan, opt);
    for (std::size_t at = 0; at < view.size; at += 250)
      tower.push_batch(view.slab(at, std::min(view.size, at + 250)));
    const StreamResult r = tower.finish();
    EXPECT_EQ(r.report.batches, plan) << "cap " << cap;
    EXPECT_LE(r.report.depth_used, r.report.depth_planned) << "cap " << cap;
    EXPECT_LE(r.report.epsilon_budget_used, opt.epsilon + 1e-12) << "cap " << cap;
  }
}

TEST(StreamSparsify, RejectsBadOptions) {
  // A valid one-batch plan, so each throw comes from the field it names.
  const auto expect_bad = [](auto&& mutate) {
    StreamOptions opt;
    mutate(opt);
    EXPECT_THROW(StreamSparsifier(4, 1, opt), spar::Error);
  };
  EXPECT_NO_THROW(StreamSparsifier(4, 1, StreamOptions{}));
  expect_bad([](StreamOptions& o) { o.epsilon = 0.0; });
  expect_bad([](StreamOptions& o) { o.rho = 0.5; });
  expect_bad([](StreamOptions& o) { o.keep_probability = 0.0; });
  expect_bad([](StreamOptions& o) { o.batch_edges = 0; });
  expect_bad([](StreamOptions& o) { o.max_resident_levels = 0; });
  // A plan of zero batches has no budget split.
  EXPECT_THROW(StreamSparsifier(4, 0, StreamOptions{}), spar::Error);
  // The drivers derive the plan from batch_edges, so they check it first
  // (it used to be a division by zero).
  StreamOptions zero_batch;
  zero_batch.batch_edges = 0;
  EdgeArena edges;
  edges.resize(4, 0);
  EXPECT_THROW(stream_sparsify(edges.view(), zero_batch), spar::Error);
}

}  // namespace
}  // namespace spar::sparsify
