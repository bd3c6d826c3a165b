// Parameter presets: the paper's theoretical constants versus the practical
// settings the benches use. One place to see (and document) the gap.
//
// Theory (Theorems 4/5, verbatim constants):
//   bundle width    t   = ceil(24 log2(n)^2 / eps^2)
//   keep prob.      p   = 1/4, reweight 4w
//   rounds          ceil(log2 rho) at per-round eps' = eps / ceil(log2 rho)
// Feasibility: the bundle alone holds ~ t * n * log2 n edges, so theory
// settings only sparsify graphs with m >> 24 n log^3 n / eps^2 -- beyond any
// feasible dense instance (it exceeds binomial(n,2) until n ~ 10^6 for
// eps = 1). The practical preset keeps the mechanism and lets benches pick a
// small t; the certified eps is then measured instead of promised.
#pragma once

#include "sparsify/sample.hpp"
#include "sparsify/sparsify.hpp"

namespace spar::sparsify {

/// Which constants a PARALLELSAMPLE / PARALLELSPARSIFY run uses.
enum class Preset {
  kTheory,     ///< paper constants; refuses nothing, but usually returns G itself
  kPractical,  ///< small bundle width; certified quality measured a posteriori
};

/// Smallest edge count at which the theory-t bundle leaves anything to
/// sample: m must exceed roughly t(n, eps) * n * log2(n).
std::size_t theory_applicability_threshold(std::size_t n, double epsilon);

/// Sampling options for one PARALLELSAMPLE round.
SampleOptions make_sample_options(Preset preset, double epsilon,
                                  std::uint64_t seed = 1,
                                  std::size_t practical_t = 3);

/// Options for the full PARALLELSPARSIFY loop.
SparsifyOptions make_sparsify_options(Preset preset, double epsilon, double rho,
                                      std::uint64_t seed = 1,
                                      std::size_t practical_t = 3);

}  // namespace spar::sparsify
