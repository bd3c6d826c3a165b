// Pass/fail checks on the answers the workloads get back from the library.
// Each returns an empty string when the answer passes and the reason when it
// does not, so a workload counts every checked operation in one place
// (Report::record).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "graph/graph.hpp"
#include "graph/update_stream.hpp"
#include "solver/sdd_matrix.hpp"

namespace perfbench {

/// Sparsifier H of G: same vertex count, connected when G is, and for
/// `probes` seeded Gaussian mean-free vectors x the ratio x'L_H x / x'L_G x
/// lies in [1 - eps, 1 + eps]. This is a probe, not a certificate: a
/// sparsifier can pass it and still miss the bound on some other vector.
std::string check_sparsifier(const spar::graph::Graph& g, const spar::graph::Graph& h,
                             double eps, std::uint64_t seed, int probes = 8);

/// Solution x of M x = b: ||b - M x|| / ||b||, recomputed with
/// SDDMatrix::apply, is at most `tolerance`.
std::string check_residual(const spar::solver::SDDMatrix& m,
                           std::span<const double> b, std::span<const double> x,
                           double tolerance);

/// Two solutions are equal bit for bit.
std::string check_bit_identical(std::span<const double> got,
                                std::span<const double> want);

/// The surviving edges of `updates` replayed in order with a hash map: the
/// oracle for the dynamic sparsifier's live graph.
spar::graph::Graph replay_updates(const spar::graph::UpdateBatch& updates);

/// Live graph equals the replay: same vertex count and the same multiset of
/// (edge, weight) pairs.
std::string check_same_edges(const spar::graph::Graph& got,
                             const spar::graph::Graph& want);

}  // namespace perfbench
