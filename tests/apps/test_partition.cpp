// Oracle matrix for the spectral partitioning app (PR 10):
//
//  1. the Fiedler VALUE from the block inverse-power iteration is held
//     against dense symmetric_eigenvalues on a (family x seed) parameter
//     grid, and the returned vector must actually be an eigenvector
//     (small eigenresidual, mean-free, unit, sign-fixed);
//  2. the SWEEP CUT is held against brute-force enumeration of every
//     bipartition on n <= 12 instances: scanning the optimal indicator must
//     recover the optimal conductance exactly, and the Fiedler sweep can
//     never beat it;
//  3. determinism: sign-fixed Fiedler vectors are bit-identical at 1/2/4
//     threads and in the OpenMP-off build (same golden hash -- re-record via
//     BUILDING.md "Re-baselining" after deliberate algorithm changes), and
//     the convenience entry point agrees bitwise with the caller-owned
//     resident-chain overload (chain-reuse identity).
#include "apps/partition.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "linalg/dense.hpp"
#include "linalg/laplacian.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace spar::apps {
namespace {

using graph::Graph;

// FNV-1a over the raw double bytes: bit-identical vectors -- and only those
// -- hash alike (the fingerprint apps_tool and bench_apps also use).
std::uint64_t vector_hash(const linalg::Vector& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (bits >> shift) & 0xffULL;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// Minimum conductance over every proper bipartition (2^(n-1) - 1 of them,
// fixing vertex 0's side to kill the mirror symmetry). Ground truth for the
// sweep-cut tests; keep n <= 12.
double brute_force_min_conductance(const Graph& g, std::vector<bool>* best_side) {
  const std::size_t n = g.num_vertices();
  double best = 2.0;
  for (std::uint32_t mask = 1; mask < (1u << (n - 1)); ++mask) {
    std::vector<bool> side(n, false);
    for (std::size_t v = 1; v < n; ++v) side[v] = (mask >> (v - 1)) & 1u;
    const double phi = conductance(g, side);
    if (phi < best) {
      best = phi;
      if (best_side) *best_side = side;
    }
  }
  return best;
}

// ---- 1. Fiedler value vs the dense eigensolver --------------------------

struct OracleCase {
  std::string family;  // grid | er | complete | wgrid
  graph::Vertex a = 0, b = 0;
  std::uint64_t seed = 0;
};

Graph build(const OracleCase& c) {
  if (c.family == "grid") return graph::grid2d(c.a, c.b);
  if (c.family == "wgrid")
    return graph::randomize_weights(graph::grid2d(c.a, c.b), 2.0, c.seed);
  if (c.family == "er")
    return graph::connected_erdos_renyi(c.a, 8.0 / double(c.a), c.seed);
  if (c.family == "complete") return graph::complete_graph(c.a);
  ADD_FAILURE() << "unknown family " << c.family;
  return Graph(1);
}

class FiedlerDenseOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(FiedlerDenseOracle, MatchesSymmetricEigenvalues) {
  const OracleCase c = GetParam();
  const Graph g = build(c);
  FiedlerOptions opt;
  opt.seed = 11 + c.seed;
  // Small ER instances are near-expanders: lambda_2 / lambda_3 ~ 1 makes the
  // inverse-power contraction per step tiny, so grant them a deeper budget
  // (each step is one cheap batched solve at this size).
  if (c.family == "er") opt.max_iterations = 400;

  const FiedlerReport fr = fiedler_vector(g, opt);
  EXPECT_TRUE(fr.converged) << c.family;
  EXPECT_GT(fr.chain_levels, 0u);

  const linalg::Vector eig = linalg::symmetric_eigenvalues(
      linalg::DenseMatrix::from_csr(linalg::laplacian_matrix(g)));
  const double exact = eig[1];
  EXPECT_NEAR(fr.value, exact, 1e-6 * exact) << c.family;
  // lambda_3 Ritz estimate is an upper-spectrum witness: at least lambda_2.
  EXPECT_GE(fr.value_next, fr.value * (1.0 - 1e-9));

  // The vector itself: unit, mean-free (deflation), small eigenresidual,
  // sign-fixed (the first entry of largest magnitude is positive).
  const auto& v = fr.vector;
  ASSERT_EQ(v.size(), g.num_vertices());
  EXPECT_NEAR(linalg::norm2(v), 1.0, 1e-9);
  EXPECT_NEAR(linalg::mean(v), 0.0, 1e-9);
  EXPECT_LT(fr.residual, opt.tolerance);
  std::size_t arg = 0;
  for (std::size_t i = 1; i < v.size(); ++i)
    if (std::abs(v[i]) > std::abs(v[arg])) arg = i;
  EXPECT_GT(v[arg], 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Families, FiedlerDenseOracle,
    ::testing::Values(OracleCase{"grid", 4, 5, 0}, OracleCase{"grid", 6, 6, 0},
                      OracleCase{"wgrid", 5, 5, 3}, OracleCase{"wgrid", 6, 4, 9},
                      OracleCase{"er", 24, 0, 1}, OracleCase{"er", 32, 0, 7},
                      OracleCase{"complete", 12, 0, 0},
                      OracleCase{"complete", 20, 0, 0}),
    [](const auto& info) {
      const OracleCase& c = info.param;
      return c.family + "_" + std::to_string(c.a) + "x" + std::to_string(c.b) +
             "_s" + std::to_string(c.seed);
    });

TEST(Fiedler, GridClosedForm) {
  // lambda_2 of an R x C unit grid is 2(1 - cos(pi / max(R, C))).
  const FiedlerReport fr = fiedler_vector(graph::grid2d(9, 4));
  EXPECT_NEAR(fr.value, 2.0 * (1.0 - std::cos(M_PI / 9.0)), 1e-7);
}

TEST(Fiedler, CompleteGraphValueIsN) {
  const FiedlerReport fr = fiedler_vector(graph::complete_graph(15));
  EXPECT_NEAR(fr.value, 15.0, 1e-6 * 15.0);
}

TEST(Fiedler, RejectsDisconnectedAndTrivialInputs) {
  Graph two(4);  // two disjoint edges
  two.add_edge(0, 1, 1.0);
  two.add_edge(2, 3, 1.0);
  EXPECT_THROW(fiedler_vector(two), spar::Error);
  EXPECT_THROW(fiedler_vector(Graph(1)), spar::Error);
}

// ---- 2. Sweep cut vs brute force on n <= 12 ------------------------------

struct SweepCase {
  std::string name;
  Graph g;
  // Paths are too thin for the inverse chain (squaring empties a level
  // diagonal -- the sparsify_tool grid:2x2 precedent), so only the scan-only
  // tests run on them; the Fiedler-driven test needs chain-friendly inputs.
  bool fiedler_ok = true;
};

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  cases.push_back({"path10", graph::path_graph(10), false});
  cases.push_back({"cycle12", graph::cycle_graph(12)});
  cases.push_back({"grid3x4", graph::grid2d(3, 4)});
  cases.push_back({"dumbbell5", graph::dumbbell(5)});
  cases.push_back({"bipartite3x4", graph::complete_bipartite(3, 4)});
  cases.push_back(
      {"wpath11", graph::randomize_weights(graph::path_graph(11), 1.5, 4), false});
  return cases;
}

class SweepCutBruteForce : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SweepCutBruteForce, OptimalIndicatorRecoversOptimum) {
  const SweepCase c = sweep_cases()[GetParam()];
  std::vector<bool> best_side;
  const double best = brute_force_min_conductance(c.g, &best_side);

  // Sweeping the optimal cut's own indicator puts the optimal prefix on the
  // sweep path, so the scan must return exactly the brute-force optimum.
  linalg::Vector indicator(c.g.num_vertices(), 0.0);
  for (std::size_t v = 0; v < best_side.size(); ++v)
    indicator[v] = best_side[v] ? 1.0 : 0.0;
  const SweepCutResult cut = sweep_cut(c.g, indicator);
  EXPECT_NEAR(cut.conductance, best, 1e-12) << c.name;

  // Internal consistency: the incremental scan's winner must price exactly
  // like the from-scratch conductance of the returned side.
  EXPECT_NEAR(cut.conductance, conductance(c.g, cut.side), 1e-12);
  EXPECT_GT(cut.cut_size, 0u);
  EXPECT_LT(cut.cut_size, c.g.num_vertices());
}

TEST_P(SweepCutBruteForce, FiedlerSweepNeverBeatsBruteForce) {
  const SweepCase c = sweep_cases()[GetParam()];
  if (!c.fiedler_ok) GTEST_SKIP() << "chain degenerates on " << c.name;
  const double best = brute_force_min_conductance(c.g, nullptr);
  const PartitionReport part = spectral_partition(c.g);
  EXPECT_GE(part.cut.conductance, best - 1e-12) << c.name;
  // On these tiny structured instances the Fiedler sweep should in fact FIND
  // the optimum (path/cycle/grid/dumbbell cuts are spectral-friendly).
  EXPECT_NEAR(part.cut.conductance, best, 1e-9) << c.name;
  EXPECT_NEAR(part.cut.conductance, conductance(c.g, part.cut.side), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Instances, SweepCutBruteForce,
                         ::testing::Range<std::size_t>(0, 6),
                         [](const auto& info) {
                           return sweep_cases()[info.param].name;
                         });

TEST(SweepCut, DumbbellFindsTheBridge) {
  // The bridge between the two cliques is the unique sensible cut.
  const Graph g = graph::dumbbell(6);
  const PartitionReport part = spectral_partition(g);
  EXPECT_EQ(part.cut.cut_size, 6u);
  EXPECT_NEAR(part.cut.cut_weight, 1.0, 1e-12);
  // Each side holds exactly one clique.
  const bool s0 = part.cut.side[0];
  for (graph::Vertex v = 0; v < 6; ++v) EXPECT_EQ(part.cut.side[v], s0);
  for (graph::Vertex v = 6; v < 12; ++v) EXPECT_EQ(part.cut.side[v], !s0);
}

TEST(SweepCut, RejectsSizeMismatch) {
  const Graph g = graph::path_graph(5);
  const linalg::Vector wrong(4, 0.0);
  EXPECT_THROW(sweep_cut(g, wrong), spar::Error);
}

// ---- 3. Determinism: golden hashes + chain-reuse identity ----------------

TEST(PartitionDeterminism, GoldenHashAcrossThreadCounts) {
  // The full app path -- chain build, batched solves, Rayleigh-Ritz, sweep
  // -- composes only chunk-ordered primitives, so the sign-fixed Fiedler
  // vector is bit-identical for any thread count and for the OpenMP-off
  // build. The golden value pins the x86-64 gcc Release build at fixed
  // (graph, seed); re-record via BUILDING.md ("Re-baselining") after
  // deliberate algorithm changes. Last moved when the chain began stopping
  // on the deflated dominance (0xe68e634ac27bd591 before): a shallower
  // chain preconditions the inner solves differently.
  const Graph g = graph::randomize_weights(graph::grid2d(16, 16), 2.0, 5);

  constexpr std::uint64_t kGoldenHash = 0x996c3d048cb11f25ULL;

  for (const int threads : {1, 2, 4}) {
    support::par::ThreadLimit limit(threads);
    const PartitionReport part = spectral_partition(g);
    EXPECT_TRUE(part.fiedler.converged);
    EXPECT_EQ(vector_hash(part.fiedler.vector), kGoldenHash)
        << threads << " threads";
  }
}

TEST(PartitionDeterminism, ChainReuseIsBitIdentical) {
  // The convenience entry point (fresh chain inside) and the caller-owned
  // resident-chain overload must agree bit for bit; and a second run against
  // the SAME resident chain must reproduce the first (no hidden state).
  const Graph g = graph::randomize_weights(graph::grid2d(12, 12), 2.0, 5);
  const FiedlerReport fresh = fiedler_vector(g);

  const solver::SDDMatrix m{Graph(g)};
  const solver::InverseChain chain(m, FiedlerOptions{}.solve.chain);
  const FiedlerReport first = fiedler_vector(m, chain);
  const FiedlerReport again = fiedler_vector(m, chain);

  ASSERT_EQ(fresh.vector.size(), first.vector.size());
  EXPECT_EQ(std::memcmp(fresh.vector.data(), first.vector.data(),
                        fresh.vector.size() * sizeof(double)),
            0);
  EXPECT_EQ(fresh.value, first.value);
  EXPECT_EQ(fresh.iterations, first.iterations);
  EXPECT_EQ(std::memcmp(first.vector.data(), again.vector.data(),
                        first.vector.size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace spar::apps
