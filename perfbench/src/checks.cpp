#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "graph/csr.hpp"
#include "graph/traversal.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/vector_ops.hpp"
#include "support/rng.hpp"

namespace perfbench {

using spar::graph::Edge;
using spar::graph::Graph;

namespace {

std::vector<Edge> canonical_edges(const Graph& g) {
  std::vector<Edge> es(g.edges().begin(), g.edges().end());
  for (Edge& e : es)
    if (e.u > e.v) std::swap(e.u, e.v);
  std::sort(es.begin(), es.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.u, a.v, a.w) < std::tie(b.u, b.v, b.w);
  });
  return es;
}

}  // namespace

std::string check_sparsifier(const Graph& g, const Graph& h, double eps,
                             std::uint64_t seed, int probes) {
  if (h.num_vertices() != g.num_vertices())
    return "sparsifier has " + std::to_string(h.num_vertices()) + " vertices, input " +
           std::to_string(g.num_vertices());
  if (spar::graph::is_connected(spar::graph::CSRGraph(g)) &&
      !spar::graph::is_connected(spar::graph::CSRGraph(h)))
    return "sparsifier of a connected graph is disconnected";
  spar::support::Rng rng(spar::support::mix64(seed, 0x9e0be));
  std::vector<double> x(g.num_vertices());
  for (int p = 0; p < probes; ++p) {
    for (double& v : x) v = rng.normal();
    spar::linalg::remove_mean(x);
    const double qg = spar::linalg::laplacian_quadratic_form(g, x);
    const double qh = spar::linalg::laplacian_quadratic_form(h, x);
    const double ratio = qh / qg;
    if (!(ratio >= 1.0 - eps && ratio <= 1.0 + eps)) {
      std::ostringstream os;
      os << "probe " << p << ": x'L_H x / x'L_G x = " << ratio << " outside [" << 1.0 - eps
         << ", " << 1.0 + eps << "]";
      return os.str();
    }
  }
  return {};
}

std::string check_residual(const spar::solver::SDDMatrix& m, std::span<const double> b,
                           std::span<const double> x, double tolerance) {
  if (x.size() != b.size()) return "solution has the wrong length";
  const spar::linalg::Vector mx = m.apply(x);
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rr += (b[i] - mx[i]) * (b[i] - mx[i]);
    bb += b[i] * b[i];
  }
  const double rel = std::sqrt(rr / bb);
  if (!(rel <= tolerance)) {
    std::ostringstream os;
    os << "relative residual " << rel << " above tolerance " << tolerance;
    return os.str();
  }
  return {};
}

std::string check_bit_identical(std::span<const double> got, std::span<const double> want) {
  if (got.size() != want.size()) return "solution lengths differ";
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) != 0)
    return "reply is not bit-identical to solve_sdd on the same chain";
  return {};
}

Graph replay_updates(const spar::graph::UpdateBatch& updates) {
  std::unordered_map<std::uint64_t, double> live;
  const auto key = [](spar::graph::Vertex a, spar::graph::Vertex b) {
    return (static_cast<std::uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
  };
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const std::uint64_t k = key(updates.u[i], updates.v[i]);
    if (updates.op[i] == static_cast<std::uint8_t>(spar::graph::UpdateOp::kInsert))
      live[k] = updates.w[i];
    else
      live.erase(k);
  }
  Graph g(updates.num_vertices);
  g.reserve(live.size());
  for (const auto& [k, w] : live)
    g.add_edge(static_cast<spar::graph::Vertex>(k >> 32),
               static_cast<spar::graph::Vertex>(k & 0xffffffffULL), w);
  return g;
}

std::string check_same_edges(const Graph& got, const Graph& want) {
  if (got.num_vertices() != want.num_vertices()) return "vertex counts differ";
  if (got.num_edges() != want.num_edges())
    return "live graph has " + std::to_string(got.num_edges()) + " edges, replay " +
           std::to_string(want.num_edges());
  if (canonical_edges(got) != canonical_edges(want))
    return "live graph differs from the replay";
  return {};
}

}  // namespace perfbench
