// Oracle-differential harness for the fully dynamic sparsifier: sweep
// delete fraction x tower batch size x seed over dense workloads, and at
// every checkpoint hold the incremental output against two oracles computed
// from scratch on the surviving edge set --
//
//  1. the EXACT oracle: live_graph() must equal the replayed survivor
//     multiset bit for bit, and
//  2. the SPECTRAL oracle: the checkpoint must certify against the survivors
//     within the requested epsilon (checked with the exact dense pencil
//     interval), and its analytic certified_epsilon must stay within that
//     budget -- the same contract a from-scratch parallel_sparsify of the
//     survivors runs under, making incremental and rebuilt paths
//     interchangeable.
//
// Checkpoints are taken mid-stream (a dirty, partially deleted tower) and at
// the end, so staleness charges, lazy re-reduces, and rebuild collapses all
// get exercised against the oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "graph/update_stream.hpp"
#include "sparsify/dynamic.hpp"
#include "sparsify/sparsify.hpp"
#include "sparsify/spectral_cert.hpp"

namespace spar::sparsify {
namespace {

using graph::Graph;
using graph::UpdateBatch;

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

/// Exact oracle: replay updates [0, upto) into the surviving edge multiset.
Graph replay_survivors(const UpdateBatch& u, std::size_t upto) {
  std::unordered_map<std::uint64_t, double> live;
  const auto key = [](graph::Vertex a, graph::Vertex b) {
    return (static_cast<std::uint64_t>(a < b ? a : b) << 32) | (a < b ? b : a);
  };
  for (std::size_t i = 0; i < upto; ++i) {
    const std::uint64_t k = key(u.u[i], u.v[i]);
    if (u.op[i] == static_cast<std::uint8_t>(graph::UpdateOp::kInsert))
      live[k] = u.w[i];
    else
      live.erase(k);
  }
  Graph g(u.num_vertices);
  for (const auto& [k, w] : live)
    g.add_edge(static_cast<graph::Vertex>(k >> 32),
               static_cast<graph::Vertex>(k & 0xffffffffULL), w);
  return g;
}

struct Workload {
  const char* name;
  Graph g;
};

std::vector<Workload> workloads() {
  // Dense families: sparse ones the t-spanner bundle covers entirely, so
  // they exercise nothing (the pass keeps every edge).
  std::vector<Workload> w;
  w.push_back({"complete100",
               graph::randomize_weights(graph::complete_graph(100), 0.5, 21)});
  w.push_back({"er120", graph::connected_erdos_renyi(120, 0.3, 5)});
  return w;
}

/// One sweep cell: drive the update stream, checkpoint at roughly 1/3, 2/3
/// and the end, certify each checkpoint against both oracles.
void run_cell(const Workload& wl, double delete_fraction, std::size_t batch_updates,
              std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << wl.name << " f=" << delete_fraction << " batch=" << batch_updates
               << " seed=" << seed);
  const UpdateBatch u = graph::synthesize_updates(wl.g, delete_fraction, seed);

  DynamicOptions opt;
  opt.epsilon = 1.0;  // the empirical-certification target of test_stream.cpp
  opt.rho = 4.0;
  opt.t = 3;
  opt.seed = seed;
  opt.batch_updates = batch_updates;
  opt.sketch_min_edges = 256;

  DynamicSparsifier dyn(wl.g.num_vertices(), opt);
  const std::size_t marks[] = {u.size() / 3, (2 * u.size()) / 3, u.size()};
  std::size_t at = 0;
  for (const std::size_t mark : marks) {
    if (mark > at) {
      UpdateBatch chunk;
      chunk.num_vertices = u.num_vertices;
      chunk.append(u, at, mark);
      dyn.apply(chunk);
      at = mark;
    }

    const Graph expected = replay_survivors(u, at);
    const Graph live = dyn.live_graph();
    ASSERT_EQ(edge_multiset_hash(live), edge_multiset_hash(expected))
        << "survivor multiset diverged at update " << at;

    const DynCheckpoint cp = dyn.checkpoint();
    EXPECT_LE(cp.certified_epsilon, opt.epsilon + 1e-12);
    if (live.num_edges() == 0) {
      EXPECT_EQ(cp.sparsifier.num_edges(), 0u);
      continue;
    }
    if (!graph::is_connected(graph::CSRGraph(live)))
      continue;  // pencil interval undefined; deletions may disconnect
    EXPECT_TRUE(graph::is_connected(graph::CSRGraph(cp.sparsifier)));
    const ApproxBounds bounds = exact_relative_bounds(live, cp.sparsifier);
    ASSERT_TRUE(bounds.defined);
    EXPECT_GT(bounds.lower, 1.0 - opt.epsilon)
        << "checkpoint outside the requested epsilon";
    EXPECT_LT(bounds.upper, 1.0 + opt.epsilon)
        << "checkpoint outside the requested epsilon";
  }
}

class DynamicOracle : public ::testing::TestWithParam<double> {};

TEST_P(DynamicOracle, CheckpointsMatchFromScratchOracles) {
  const double fraction = GetParam();
  // Batch size cycles with the seed so the sweep covers (fraction, batch,
  // seed) without a cubic blowup; 1 << 16 = the whole stream in one batch.
  // 150 = exact-serving levels throughout (density gate), 2000 = mixed
  // sketch/exact, 1 << 16 = the whole stream in one sketched level.
  const std::size_t batch_sizes[] = {150, 2000, std::size_t{1} << 16};
  for (const Workload& wl : workloads())
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
      run_cell(wl, fraction, batch_sizes[seed - 1], seed);
}

INSTANTIATE_TEST_SUITE_P(DeleteFractions, DynamicOracle,
                         ::testing::Values(0.0, 0.2, 0.5),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return info.param == 0.0   ? "insertOnly"
                                  : info.param == 0.2 ? "delete20"
                                                      : "delete50";
                         });

TEST(DynamicOracle, IncrementalAgreesWithRebuildQualityOnHeavyDeletion) {
  // After deleting 60% of a complete graph the tower has rebuilt at least
  // once on small batches; both the incremental checkpoint and a from-scratch
  // parallel_sparsify of the survivors must certify within the same eps.
  const Graph g = graph::randomize_weights(graph::complete_graph(90), 0.5, 8);
  const UpdateBatch u = graph::synthesize_updates(g, 0.6, 4);
  DynamicOptions opt;
  opt.epsilon = 1.0;
  opt.seed = 9;
  opt.batch_updates = 200;
  opt.sketch_min_edges = 256;
  DynamicSparsifier dyn(g.num_vertices(), opt);
  dyn.apply(u);
  const DynCheckpoint cp = dyn.checkpoint();
  const Graph live = dyn.live_graph();

  SparsifyOptions scratch;
  scratch.epsilon = opt.epsilon;
  scratch.rho = opt.rho;
  scratch.t = opt.t;
  scratch.seed = 77;
  const SparsifyResult oracle = parallel_sparsify(live, scratch);

  for (const Graph* h : {&cp.sparsifier, &oracle.sparsifier}) {
    const ApproxBounds bounds = exact_relative_bounds(live, *h);
    ASSERT_TRUE(bounds.defined);
    EXPECT_GT(bounds.lower, 1.0 - opt.epsilon);
    EXPECT_LT(bounds.upper, 1.0 + opt.epsilon);
  }
}

}  // namespace
}  // namespace spar::sparsify
