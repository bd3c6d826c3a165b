// Sparsifier quality diagnostics beyond the eigenvalue certificate.
//
// The pencil bounds (spectral_cert.hpp) are the ground truth, but users
// commonly want cheaper, more interpretable diagnostics:
//  * random-vector quadratic-form ratios  x^T L_H x / x^T L_G x  (inner
//    estimates of the pencil interval; O(m) per probe),
//  * random-cut weight ratios (cut sparsification is implied by spectral,
//    with cut vectors being 0/1 probes),
//  * structural checks: connectivity, edge/weight totals.
// quality_report() bundles these into one struct; benches and examples print
// it, and property tests assert its internal consistency.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace spar::sparsify {

/// Probe counts of quality_report.
struct QualityOptions {
  std::size_t gaussian_probes = 64;  ///< random x ~ N(0, I), mean-removed
  std::size_t cut_probes = 64;       ///< random bipartitions
  std::uint64_t seed = 101;          ///< probe seed
};

/// Probe-based diagnostics of a sparsifier h of g.
struct QualityReport {
  // Quadratic-form ratio extremes over Gaussian probes (inner estimates of
  // the pencil interval [lower, upper]).
  double min_quadratic_ratio = 0.0;
  double max_quadratic_ratio = 0.0;  ///< largest x'L_h x / x'L_g x seen
  // Cut-weight ratio extremes over random bipartitions.
  double min_cut_ratio = 0.0;
  double max_cut_ratio = 0.0;  ///< largest w_h(cut) / w_g(cut) seen
  // Structure.
  bool sparsifier_connected = false;
  std::size_t edges_original = 0;    ///< edges of g
  std::size_t edges_sparsifier = 0;  ///< edges of h
  double weight_original = 0.0;      ///< total weight of g
  double weight_sparsifier = 0.0;    ///< total weight of h

  /// Edges of g per edge of h (0 when h is empty).
  double edge_reduction() const {
    return edges_sparsifier == 0
               ? 0.0
               : static_cast<double>(edges_original) /
                     static_cast<double>(edges_sparsifier);
  }
};

/// Diagnostics of `h` as a sparsifier of `g` (same vertex set required).
QualityReport quality_report(const graph::Graph& g, const graph::Graph& h,
                             const QualityOptions& options = {});

}  // namespace spar::sparsify
