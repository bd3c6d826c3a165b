// Batch driver for the application layer (src/apps): spectral partitioning,
// PageRank / personalized PageRank, and sparsifier quality-on-task.
//
//   apps_tool <inputs...> [--app=partition,pagerank,quality]
//             [--eps=0.5,1.0] [--damping=0.85] [--sources=0,5,9]
//             [--top-k=10] [--pairs=8] [--dynamic] [--delete-fraction=0.2]
//             [--threads=T] [--seed=1] [--json=report.json]
//
// Inputs are file paths or synthetic specs gen:<family>:<params>[:seed]
// (the sparsify_tool vocabulary, e.g. gen:grid:32x32, gen:er:2000:3).
// Disconnected inputs are reduced to their largest component.
//
// Apps:
//  * partition - Fiedler pair via block inverse-power on the resident chain,
//    sweep-cut conductance; prints lambda_2, phi, |S| and the FNV hash of the
//    sign-fixed Fiedler vector (the determinism fingerprint CI compares
//    across thread counts).
//  * pagerank - (personalized) PageRank power iteration; prints iterations,
//    the top-5 vertices and the score-vector hash. --sources selects the
//    personalization support (empty = global).
//  * quality - sparsify each input with parallel_sparsify at every --eps and
//    report quality-on-task numbers (conductance deltas, Spearman, top-k
//    overlap, resistance-ratio window). --dynamic additionally replays the
//    input through a DynamicSparsifier (synthesize_updates) and evaluates
//    its checkpoint the same way.
//
// --threads=T pins the parallel substrate before any work (results are
// bit-identical for any T by the determinism contract -- the hashes let you
// check exactly that). Exit: 0 ok, 1 error, 2 usage.
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "apps/pagerank.hpp"
#include "apps/partition.hpp"
#include "apps/task_quality.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/subgraph.hpp"
#include "graph/traversal.hpp"
#include "graph/update_stream.hpp"
#include "sparsify/dynamic.hpp"
#include "sparsify/sparsify.hpp"
#include "sparsify/spectral_cert.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/options.hpp"
#include "support/parallel.hpp"
#include "support/timer.hpp"

namespace {

using namespace spar;

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t next = s.find(sep, pos);
    out.push_back(s.substr(pos, next == std::string::npos ? next : next - pos));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return out;
}

graph::Graph load_input(const std::string& spec) {
  if (spec.rfind("gen:", 0) == 0) return graph::generate_spec(spec);
  return graph::load_graph(spec);
}

// FNV-1a over the raw bytes of a double vector: the determinism fingerprint
// (same scheme as bench_dynamic's edge hash). Bit-identical vectors -- and
// only those -- collide on purpose.
std::uint64_t vector_hash(std::span<const double> v) {
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

struct RunRecord {
  std::string input, app;
  graph::Vertex n = 0;
  std::size_t m = 0;
  double ms = 0.0;
  // partition fields
  apps::PartitionReport partition;
  std::uint64_t fiedler_hash = 0;
  // pagerank fields
  apps::PageRankReport pr;
  std::uint64_t pagerank_hash = 0;
  std::size_t sources = 0;
  // quality fields
  bool quality = false;
  bool dynamic = false;  ///< sparsifier came from a DynamicSparsifier checkpoint
  double eps = 0.0;
  double certified_eps = 0.0;
  std::size_t edges_sparsifier = 0;
  apps::TaskQualityReport task;
};

void write_json(const std::string& path, const std::vector<RunRecord>& runs) {
  std::ofstream out(path);
  if (!out.good()) throw Error("cannot open --json path " + path);
  out << "{\n  \"tool\": \"apps_tool\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    out << "    {\"input\": \"" << support::json_escape(r.input) << "\", \"app\": \""
        << r.app << "\", \"n\": " << r.n << ", \"m\": " << r.m
        << ", \"ms\": " << r.ms;
    if (r.app == "partition") {
      out << ", \"fiedler_value\": " << r.partition.fiedler.value
          << ", \"fiedler_iterations\": " << r.partition.fiedler.iterations
          << ", \"fiedler_converged\": "
          << (r.partition.fiedler.converged ? "true" : "false")
          << ", \"conductance\": " << r.partition.cut.conductance
          << ", \"cut_size\": " << r.partition.cut.cut_size
          << ", \"chain_levels\": " << r.partition.fiedler.chain_levels
          << ", \"fiedler_hash\": \"" << std::hex << r.fiedler_hash << std::dec
          << "\"";
    } else if (r.app == "pagerank") {
      out << ", \"iterations\": " << r.pr.iterations << ", \"converged\": "
          << (r.pr.converged ? "true" : "false") << ", \"delta\": " << r.pr.delta
          << ", \"sources\": " << r.sources << ", \"pagerank_hash\": \""
          << std::hex << r.pagerank_hash << std::dec << "\"";
    } else {
      const auto& t = r.task;
      out << ", \"dynamic\": " << (r.dynamic ? "true" : "false")
          << ", \"eps\": " << r.eps << ", \"certified_eps\": " << r.certified_eps
          << ", \"edges_out\": " << r.edges_sparsifier
          << ", \"fiedler_value_g\": " << t.fiedler_value_g
          << ", \"fiedler_value_h\": " << t.fiedler_value_h
          << ", \"conductance_g\": " << t.conductance_g
          << ", \"conductance_h\": " << t.conductance_h
          << ", \"cross_conductance\": " << t.cross_conductance
          << ", \"spearman\": " << t.spearman
          << ", \"top_k_overlap\": " << t.top_k_overlap
          << ", \"pagerank_l1_delta\": " << t.pagerank_l1_delta
          << ", \"min_resistance_ratio\": " << t.min_resistance_ratio
          << ", \"max_resistance_ratio\": " << t.max_resistance_ratio;
    }
    out << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!out.good()) throw Error("write failed for --json path " + path);
}

int run(int argc, char** argv) {
  const support::Options opt(argc, argv);

  std::vector<std::string> inputs = opt.positional();
  if (opt.has("in"))
    for (const std::string& s : split(opt.get("in", ""), ','))
      if (!s.empty()) inputs.push_back(s);
  if (inputs.empty()) {
    std::fprintf(
        stderr,
        "usage: apps_tool <inputs...> [--app=partition,pagerank,quality]\n"
        "                 [--eps=0.5,1.0] [--rho=8] [--t=3] [--damping=0.85]\n"
        "                 [--sources=0,5,9] [--top-k=10] [--pairs=8]\n"
        "                 [--dynamic] [--delete-fraction=0.2] [--threads=T]\n"
        "                 [--seed=1] [--json=report.json]\n"
        "inputs: paths or gen:<family>:<params>[:seed] (grid:RxC, er:N, ...)\n");
    return 2;
  }

  const std::vector<std::string> apps_list = split(opt.get("app", "partition,pagerank"), ',');
  for (const std::string& app : apps_list)
    if (app != "partition" && app != "pagerank" && app != "quality")
      throw Error("unknown app: " + app + " (want partition, pagerank or quality)");
  std::vector<double> eps_list;
  for (const std::string& tok : split(opt.get("eps", "0.5"), ','))
    eps_list.push_back(support::parse_number<double>("--eps", tok));
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  const double rho = opt.get_double("rho", 8.0);
  const auto t = static_cast<std::size_t>(opt.get_int("t", 3));
  const double damping = opt.get_double("damping", 0.85);
  const auto top_k = static_cast<std::size_t>(opt.get_int("top-k", 10));
  const auto pairs = static_cast<std::size_t>(opt.get_int("pairs", 8));
  const bool dynamic = opt.get_bool("dynamic", false);
  const double delete_fraction = opt.get_double("delete-fraction", 0.2);
  const std::string json_path = opt.get("json", "");
  std::vector<graph::Vertex> sources;
  if (opt.has("sources"))
    for (const std::string& tok : split(opt.get("sources", ""), ','))
      if (!tok.empty())
        sources.push_back(support::parse_number<graph::Vertex>("--sources", tok));
  if (opt.has("threads"))
    support::par::set_num_threads(static_cast<int>(opt.get_int("threads", 1)));
  if (!json_path.empty()) {
    std::ofstream probe(json_path, std::ios::app);
    if (!probe.good()) throw Error("cannot open --json path " + json_path);
  }

  std::vector<RunRecord> records;
  for (const std::string& spec : inputs) {
    const graph::Graph input = load_input(spec);
    const graph::InducedSubgraph comp = graph::largest_component(input);
    if (comp.graph.num_vertices() != input.num_vertices())
      std::printf("%s: disconnected; using largest component: %u of %u vertices\n",
                  spec.c_str(), comp.graph.num_vertices(), input.num_vertices());
    const graph::Graph& g = comp.graph;
    std::printf("%s: n=%u m=%zu\n", spec.c_str(), g.num_vertices(), g.num_edges());

    for (const std::string& app : apps_list) {
      if (app == "partition") {
        apps::FiedlerOptions fopt;
        fopt.seed = seed;
        support::Timer timer;
        RunRecord rec;
        rec.partition = apps::spectral_partition(g, fopt);
        rec.ms = timer.millis();
        rec.input = spec;
        rec.app = app;
        rec.n = g.num_vertices();
        rec.m = g.num_edges();
        rec.fiedler_hash = vector_hash(rec.partition.fiedler.vector);
        std::printf(
            "  partition: lambda2 %.6e, phi %.6f, |S| %zu, %zu iterations%s, "
            "chain %zu levels, %.1f ms, hash %016llx\n",
            rec.partition.fiedler.value, rec.partition.cut.conductance,
            rec.partition.cut.cut_size, rec.partition.fiedler.iterations,
            rec.partition.fiedler.converged ? "" : " (NOT CONVERGED)",
            rec.partition.fiedler.chain_levels, rec.ms,
            static_cast<unsigned long long>(rec.fiedler_hash));
        records.push_back(std::move(rec));
      } else if (app == "pagerank") {
        apps::PageRankOptions popt;
        popt.damping = damping;
        popt.sources = sources;
        for (const graph::Vertex s : popt.sources)
          if (s >= g.num_vertices())
            throw Error("--sources vertex out of range for " + spec);
        support::Timer timer;
        RunRecord rec;
        rec.pr = apps::pagerank(g, popt);
        rec.ms = timer.millis();
        rec.input = spec;
        rec.app = app;
        rec.n = g.num_vertices();
        rec.m = g.num_edges();
        rec.sources = popt.sources.size();
        rec.pagerank_hash = vector_hash(rec.pr.scores);
        const std::vector<graph::Vertex> order = apps::ranking(rec.pr.scores);
        std::printf("  pagerank%s: %zu iterations%s, delta %.2e, %.1f ms, hash "
                    "%016llx, top:",
                    rec.sources > 0 ? " (personalized)" : "", rec.pr.iterations,
                    rec.pr.converged ? "" : " (NOT CONVERGED)", rec.pr.delta,
                    rec.ms, static_cast<unsigned long long>(rec.pagerank_hash));
        for (std::size_t i = 0; i < std::min<std::size_t>(5, order.size()); ++i)
          std::printf(" %u(%.4g)", order[i], rec.pr.scores[order[i]]);
        std::printf("\n");
        records.push_back(std::move(rec));
      } else {
        apps::TaskQualityOptions qopt;
        qopt.fiedler.seed = seed;
        qopt.pagerank.damping = damping;
        qopt.top_k = top_k;
        qopt.resistance_pairs = pairs;
        qopt.seed = seed;
        for (const double eps : eps_list) {
          // Static sparsifier cell, then (with --dynamic) a dynamic-checkpoint
          // cell over the same input and epsilon.
          for (int dyn_pass = 0; dyn_pass < (dynamic ? 2 : 1); ++dyn_pass) {
            graph::Graph sparse;
            double certified = 0.0;
            if (dyn_pass == 0) {
              sparsify::SparsifyOptions sopt;
              sopt.epsilon = eps;
              sopt.rho = rho;
              sopt.t = t;
              sopt.seed = seed;
              auto result = sparsify::parallel_sparsify(g, sopt);
              sparse = std::move(result.sparsifier);
              // Measure the achieved (1 +- eps) a posteriori; the quality
              // regression test bounds the task deltas by this number.
              certified = sparsify::approx_relative_bounds(g, sparse).epsilon();
            } else {
              const graph::UpdateBatch updates =
                  graph::synthesize_updates(g, delete_fraction, seed);
              sparsify::DynamicOptions dopt;
              dopt.epsilon = eps;
              dopt.rho = rho;
              dopt.t = t;
              dopt.seed = seed;
              sparsify::DynamicSparsifier dsp(g.num_vertices(), dopt);
              dsp.apply(updates);
              sparsify::DynCheckpoint cp = dsp.checkpoint();
              // The surviving live graph (not g) is the dynamic baseline.
              const graph::Graph live = dsp.live_graph();
              if (!graph::is_connected(graph::CSRGraph(live)) ||
                  !graph::is_connected(graph::CSRGraph(cp.sparsifier))) {
                // Random deletions can disconnect either side; the evaluation
                // needs both connected, so skip the cell rather than abort.
                std::printf(
                    "  quality (dynamic) eps=%g: skipped (disconnected after "
                    "deletions)\n",
                    eps);
                continue;
              }
              support::Timer timer;
              RunRecord rec;
              rec.task = apps::evaluate_on_tasks(live, cp.sparsifier, qopt);
              rec.ms = timer.millis();
              rec.input = spec;
              rec.app = "quality";
              rec.n = live.num_vertices();
              rec.m = live.num_edges();
              rec.quality = true;
              rec.dynamic = true;
              rec.eps = eps;
              rec.certified_eps = cp.certified_epsilon;
              rec.edges_sparsifier = cp.sparsifier.num_edges();
              std::printf(
                  "  quality (dynamic) eps=%g (certified %.4f): phi %.4f -> %.4f "
                  "(cross %.4f), spearman %.4f, top-%zu %.2f, R ratio [%.4f, "
                  "%.4f], %.1f ms\n",
                  eps, rec.certified_eps, rec.task.conductance_g,
                  rec.task.conductance_h, rec.task.cross_conductance,
                  rec.task.spearman, top_k, rec.task.top_k_overlap,
                  rec.task.min_resistance_ratio, rec.task.max_resistance_ratio,
                  rec.ms);
              records.push_back(std::move(rec));
              continue;
            }
            support::Timer timer;
            RunRecord rec;
            rec.task = apps::evaluate_on_tasks(g, sparse, qopt);
            rec.ms = timer.millis();
            rec.input = spec;
            rec.app = "quality";
            rec.n = g.num_vertices();
            rec.m = g.num_edges();
            rec.quality = true;
            rec.eps = eps;
            rec.certified_eps = certified;
            rec.edges_sparsifier = sparse.num_edges();
            std::printf(
                "  quality eps=%g (certified %.4f): %zu -> %zu edges, phi %.4f "
                "-> %.4f (cross %.4f), spearman %.4f, top-%zu %.2f, R ratio "
                "[%.4f, %.4f], %.1f ms\n",
                eps, rec.certified_eps, g.num_edges(), rec.edges_sparsifier,
                rec.task.conductance_g, rec.task.conductance_h,
                rec.task.cross_conductance, rec.task.spearman, top_k,
                rec.task.top_k_overlap, rec.task.min_resistance_ratio,
                rec.task.max_resistance_ratio, rec.ms);
            records.push_back(std::move(rec));
          }
        }
      }
    }
  }

  if (!json_path.empty()) {
    write_json(json_path, records);
    std::printf("wrote %s (%zu runs)\n", json_path.c_str(), records.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "apps_tool: error: %s\n", err.what());
    return 1;
  }
}
