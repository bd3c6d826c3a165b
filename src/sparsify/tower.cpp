#include "sparsify/tower.hpp"

#include <utility>

#include "sparsify/round_context.hpp"
#include "sparsify/sparsify.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace spar::sparsify {

double budget_epsilon(double epsilon, double share, std::size_t passes) {
  return std::expm1(share * std::log1p(epsilon) /
                    static_cast<double>(std::max<std::size_t>(passes, 1)));
}

TowerPasses::TowerPasses(const TowerOptions& options, std::uint64_t seed_tag)
    : opt_(options), seed_base_(support::mix64(options.seed, seed_tag)) {
  SPAR_CHECK(opt_.epsilon > 0.0, "tower: epsilon must be positive");
  SPAR_CHECK(opt_.rho >= 1.0, "tower: rho must be >= 1");
  SPAR_CHECK(opt_.keep_probability > 0.0 && opt_.keep_probability <= 1.0,
             "tower: keep_probability must be in (0, 1]");
}

graph::EdgeArena TowerPasses::reduce(graph::EdgeArena edges, double epsilon) {
  reduced_edges_ += edges.size();
  SparsifyOptions sopt;
  sopt.epsilon = epsilon;
  sopt.rho = opt_.rho;
  sopt.t = opt_.t;
  sopt.keep_probability = opt_.keep_probability;
  sopt.seed = support::mix64(seed_base_, ++passes_);
  sopt.work = opt_.work;
  RoundContext ctx(std::move(edges));
  parallel_sparsify_rounds(ctx, sopt);
  return std::move(ctx.arena());
}

graph::EdgeArena TowerPasses::reduce(const graph::EdgeView& edges, double epsilon) {
  graph::EdgeArena copy(edges.num_vertices);
  copy.append(edges);
  return reduce(std::move(copy), epsilon);
}

}  // namespace spar::sparsify
