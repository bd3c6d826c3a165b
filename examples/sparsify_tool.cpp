// Batch sparsification driver and graph format converter.
//
//   sparsify_tool <inputs...> [--method=koutis,ss] [--eps=0.5,1.0] [--rho=8,32]
//                 [--t=3] [--keep=0.25] [--seed=1] [--json=report.json]
//                 [--out=sparse.spb] [--solve-rhs=K]
//   sparsify_tool <inputs...> --stream [--batch-edges=N] [--json=report.json]
//   sparsify_tool --updates=u.spd [--batch-updates=N] [--json=report.json]
//   sparsify_tool <input> --make-updates=u.spd [--delete-fraction=f]
//   sparsify_tool --in=g.txt --convert=g.spb
//
// --solve-rhs=K solves the sparsifier's Laplacian against K random mean-free
// right-hand sides in one batched chain-PCG call (solver/solve_sdd_multi) and
// records iterations / achieved residual / wall time in the report and the
// --json solver fields (solve_*). Skipped when the sparsifier is
// disconnected.
//
// --stream runs the merge-and-reduce streaming driver (sparsify/stream.hpp):
// file inputs are consumed through batched edge streams (never fully
// resident inside the sparsifier), gen: inputs through in-memory slab
// batches. Stream mode implies method=koutis, skips the largest-component
// reduction (the stream is the raw graph), and reports the tower's
// peak-resident/merge accounting next to the quality numbers (the quality
// report itself still loads the input for comparison -- bench_stream is the
// bounded-memory demonstration).
//
// --updates runs the fully dynamic driver (sparsify/dynamic.hpp) over a
// mixed insert/delete update file (SPARDYN binary or dynamic edge-list text,
// auto-detected): the DynamicSparsifier ingests the whole stream through its
// guttering buffer, serves one final checkpoint, and the quality report
// compares it against the exact surviving graph. --make-updates converts one
// input graph into such an update file (synthesize_updates: every edge
// inserted once in seeded shuffled order, a --delete-fraction subset deleted
// at random later points), the shared workload of bench_dynamic (E17).
//
// Inputs (one or more, positional or --in=a,b): file paths, or synthetic
// specs `gen:<family>:<params>[:seed]`, e.g. gen:grid:64x48, gen:wgrid:32x32:7
// (randomized weights), gen:er:5000:3, gen:complete:128, gen:pa:4096:1.
// File formats are auto-detected by content magic, then extension:
// .mtx/.mm MatrixMarket, .spb/.bin SPARBIN binary, anything else edge list.
//
// Batch mode runs every (input x method x eps x rho) cell, prints a quality
// report per cell, and with --json writes the machine-readable records.
// --out writes the sparsifier (format by extension) and requires the matrix
// to be a single cell. --convert loads one input and rewrites it in the
// format implied by the destination path, no sparsification.
//
// Methods: koutis (PARALLELSPARSIFY), sample (one PARALLELSAMPLE round),
//          ss (Spielman-Srivastava), uniform (--keep), incremental (KMP-style).
// Disconnected inputs are reduced to their largest component.
// Exit: 0 ok, 1 error, 2 usage, 3 a sparsifier came out disconnected.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/subgraph.hpp"
#include "graph/update_stream.hpp"
#include "solver/solver.hpp"
#include "sparsify/baselines.hpp"
#include "sparsify/dynamic.hpp"
#include "sparsify/incremental.hpp"
#include "sparsify/quality.hpp"
#include "sparsify/sparsify.hpp"
#include "sparsify/stream.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
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

using support::parse_number;

std::vector<double> parse_list(const support::Options& opt, const std::string& key,
                               double fallback) {
  if (!opt.has(key)) return {fallback};
  std::vector<double> out;
  for (const std::string& tok : split(opt.get(key, ""), ','))
    out.push_back(parse_number<double>("--" + key, tok));
  if (out.empty()) throw Error("--" + key + " needs at least one value");
  return out;
}

graph::Graph load_input(const std::string& spec) {
  if (spec.rfind("gen:", 0) == 0) return graph::generate_spec(spec);
  return graph::load_graph(spec);
}

struct RunRecord {
  std::string input, method;
  graph::Vertex n = 0;
  std::size_t m = 0;
  bool reduced_to_component = false;
  double eps = 0, rho = 0;
  std::size_t t = 0;
  std::uint64_t seed = 0;
  double ms = 0;
  sparsify::QualityReport report;
  bool stream = false;
  sparsify::StreamReport stream_report;
  // --updates: fully dynamic run (dyn_* fields).
  bool dynamic = false;
  std::size_t updates = 0;
  double certified_epsilon = 0.0;
  sparsify::DynStats dyn;
  // --solve-rhs=K: batched Laplacian solve on the sparsifier (solver fields).
  std::size_t solve_rhs = 0;
  std::size_t solve_iters_max = 0;
  double solve_residual_max = 0.0;
  bool solve_converged = false;
  double solve_ms = 0.0;
  std::size_t solve_chain_levels = 0;
  std::size_t solve_chain_nnz = 0;
};

void write_json(const std::string& path, const std::vector<RunRecord>& runs) {
  std::ofstream out(path);
  if (!out.good()) throw Error("cannot open --json path " + path);
  out << "{\n  \"tool\": \"sparsify_tool\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    const auto& q = r.report;
    out << "    {\"input\": \"" << support::json_escape(r.input) << "\", \"n\": " << r.n
        << ", \"m\": " << r.m
        << ", \"largest_component_used\": " << (r.reduced_to_component ? "true" : "false")
        << ", \"method\": \"" << r.method << "\", \"eps\": " << r.eps
        << ", \"rho\": " << r.rho << ", \"t\": " << r.t << ", \"seed\": " << r.seed
        << ", \"ms\": " << r.ms << ", \"edges_out\": " << q.edges_sparsifier
        << ", \"edge_reduction\": " << q.edge_reduction()
        << ", \"min_quadratic_ratio\": " << q.min_quadratic_ratio
        << ", \"max_quadratic_ratio\": " << q.max_quadratic_ratio
        << ", \"min_cut_ratio\": " << q.min_cut_ratio
        << ", \"max_cut_ratio\": " << q.max_cut_ratio
        << ", \"connected\": " << (q.sparsifier_connected ? "true" : "false")
        << ", \"weight_in\": " << q.weight_original
        << ", \"weight_out\": " << q.weight_sparsifier;
    if (r.stream) {
      const auto& s = r.stream_report;
      out << ", \"stream\": true, \"batch_edges\": " << s.batch_edges
          << ", \"stream_batches\": " << s.batches
          << ", \"peak_resident_edges\": " << s.peak_resident_edges
          << ", \"stream_levels\": " << s.levels_used
          << ", \"stream_depth_used\": " << s.depth_used
          << ", \"stream_depth_planned\": " << s.depth_planned
          << ", \"per_level_epsilon\": " << s.per_level_epsilon
          << ", \"stream_sparsify_calls\": " << s.sparsify_calls
          << ", \"stream_merge_edges\": " << s.merge_edges
          << ", \"stream_edges_ingested\": " << s.edges_ingested;
    }
    if (r.dynamic) {
      const auto& d = r.dyn;
      out << ", \"dynamic\": true, \"updates\": " << r.updates
          << ", \"dyn_certified_eps\": " << r.certified_epsilon
          << ", \"dyn_inserts\": " << d.inserts_applied
          << ", \"dyn_deletes\": " << d.deletes_applied
          << ", \"dyn_cancelled\": " << d.cancelled_pairs
          << ", \"dyn_batches\": " << d.batches
          << ", \"dyn_levels_dirtied\": " << d.levels_dirtied
          << ", \"dyn_carry_reduces\": " << d.carry_reduces
          << ", \"dyn_re_reduces\": " << d.re_reduces
          << ", \"dyn_rebuilds\": " << d.rebuilds
          << ", \"dyn_live_edges\": " << d.live_edges
          << ", \"dyn_peak_resident_edges\": " << d.peak_resident_edges
          << ", \"dyn_levels_used\": " << d.levels_used;
    }
    if (r.solve_rhs > 0) {
      out << ", \"solve_rhs\": " << r.solve_rhs
          << ", \"solve_iters_max\": " << r.solve_iters_max
          << ", \"solve_residual_max\": " << r.solve_residual_max
          << ", \"solve_converged\": " << (r.solve_converged ? "true" : "false")
          << ", \"solve_ms\": " << r.solve_ms
          << ", \"solve_chain_levels\": " << r.solve_chain_levels
          << ", \"solve_chain_nnz\": " << r.solve_chain_nnz;
    }
    out << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!out.good()) throw Error("write failed for --json path " + path);
}

bool known_method(const std::string& method) {
  for (const char* m : {"koutis", "sample", "ss", "uniform", "incremental"})
    if (method == m) return true;
  return false;
}

graph::Graph run_method(const graph::Graph& g, const std::string& method, double eps,
                        double rho, std::size_t t, std::uint64_t seed, double keep) {
  if (method == "koutis") {
    sparsify::SparsifyOptions sopt;
    sopt.epsilon = eps;
    sopt.rho = rho;
    sopt.t = t;
    sopt.seed = seed;
    return sparsify::parallel_sparsify(g, sopt).sparsifier;
  }
  if (method == "sample") {
    sparsify::SampleOptions sopt;
    sopt.epsilon = eps;
    sopt.t = t;
    sopt.seed = seed;
    return sparsify::parallel_sample(g, sopt).sparsifier;
  }
  if (method == "ss") {
    sparsify::SpielmanSrivastavaOptions sopt;
    sopt.epsilon = eps;
    sopt.seed = seed;
    return sparsify::spielman_srivastava(g, sopt).sparsifier;
  }
  if (method == "uniform") return sparsify::uniform_sparsify(g, keep, seed);
  if (method == "incremental") {
    sparsify::IncrementalOptions sopt;
    sopt.epsilon = eps;
    sopt.seed = seed;
    return sparsify::incremental_sparsify(g, sopt).sparsifier;
  }
  throw Error("unknown method: " + method +
              " (want koutis, sample, ss, uniform or incremental)");
}

int run(int argc, char** argv) {
  const support::Options opt(argc, argv);

  std::vector<std::string> inputs = opt.positional();
  if (opt.has("in"))
    for (const std::string& s : split(opt.get("in", ""), ','))
      if (!s.empty()) inputs.push_back(s);
  if (opt.has("gen")) inputs.push_back("gen:" + opt.get("gen", ""));
  const std::string updates_path = opt.get("updates", "");
  if (inputs.empty() && updates_path.empty()) {
    std::fprintf(
        stderr,
        "usage: sparsify_tool <inputs...> [--method=koutis,ss] [--eps=0.5,1.0]\n"
        "                     [--rho=8,32] [--t=3] [--keep=0.25] [--seed=1]\n"
        "                     [--json=report.json] [--out=sparse.spb]\n"
        "                     [--solve-rhs=K]\n"
        "       sparsify_tool <inputs...> --stream [--batch-edges=131072]\n"
        "       sparsify_tool --updates=u.spd [--batch-updates=65536]\n"
        "       sparsify_tool <input> --make-updates=u.spd [--delete-fraction=0.2]\n"
        "       sparsify_tool --in=g.txt --convert=g.spb\n"
        "inputs: paths (.mtx/.mm, .spb/.bin, else edge list; content magic wins)\n"
        "        or gen:<family>:<params>[:seed] (grid:RxC, wgrid:RxC, er:N,\n"
        "        wer:N, complete:N, pa:N, ws:N)\n"
        "updates: SPARDYN binary or dynamic edge-list text (content magic wins)\n");
    return 2;
  }

  // Parse and validate the whole option matrix before touching any file, so
  // a malformed value fails fast with a clean message.
  const bool stream_mode = opt.get_bool("stream", false);
  const std::vector<std::string> methods = split(opt.get("method", "koutis"), ',');
  const std::vector<double> eps_list = parse_list(opt, "eps", 1.0);
  const std::vector<double> rho_list = parse_list(opt, "rho", 8.0);
  const auto t = static_cast<std::size_t>(opt.get_int("t", 3));
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  const double keep = opt.get_double("keep", 0.25);
  const std::int64_t batch_edges_raw =
      opt.get_int("batch-edges", std::int64_t{1} << 17);
  if (batch_edges_raw <= 0) throw Error("--batch-edges must be positive");
  const auto batch_edges = static_cast<std::size_t>(batch_edges_raw);
  const std::int64_t solve_rhs_raw = opt.get_int("solve-rhs", 0);
  if (solve_rhs_raw < 0) throw Error("--solve-rhs must be nonnegative");
  const auto solve_rhs = static_cast<std::size_t>(solve_rhs_raw);
  const std::string json_path = opt.get("json", "");
  const std::string out_path = opt.get("out", "");
  const std::string convert_path = opt.get("convert", "");
  const std::string make_updates_path = opt.get("make-updates", "");
  const double delete_fraction = opt.get_double("delete-fraction", 0.2);
  const std::int64_t batch_updates_raw =
      opt.get_int("batch-updates", std::int64_t{1} << 16);
  if (batch_updates_raw <= 0) throw Error("--batch-updates must be positive");
  const auto batch_updates = static_cast<std::size_t>(batch_updates_raw);
  if (!updates_path.empty() && (!inputs.empty() || stream_mode))
    throw Error("--updates replaces graph inputs (and excludes --stream)");
  for (const std::string& method : methods)
    if (!known_method(method))
      throw Error("unknown method: " + method +
                  " (want koutis, sample, ss, uniform or incremental)");
  if (stream_mode)
    for (const std::string& method : methods)
      if (method != "koutis")
        throw Error("--stream supports method=koutis only (got " + method + ")");
  if (!json_path.empty()) {
    // Probe the sink now: an unwritable path must not discard a finished batch.
    std::ofstream probe(json_path, std::ios::app);
    if (!probe.good()) throw Error("cannot open --json path " + json_path);
  }

  if (!convert_path.empty()) {
    if (inputs.size() != 1)
      throw Error("--convert takes exactly one input, got " +
                  std::to_string(inputs.size()));
    const graph::Graph g = load_input(inputs[0]);
    graph::save_graph(convert_path, g);
    std::printf("converted %s -> %s (%s): n=%u m=%zu\n", inputs[0].c_str(),
                convert_path.c_str(),
                graph::format_name(graph::format_from_extension(convert_path)),
                g.num_vertices(), g.num_edges());
    return 0;
  }

  if (!make_updates_path.empty()) {
    if (inputs.size() != 1)
      throw Error("--make-updates takes exactly one input, got " +
                  std::to_string(inputs.size()));
    const graph::Graph g = load_input(inputs[0]);
    const graph::UpdateBatch u = graph::synthesize_updates(g, delete_fraction, seed);
    graph::save_updates(make_updates_path, u);
    std::printf(
        "synthesized %s -> %s: n=%u, %zu updates (delete fraction %g, seed "
        "%llu)\n",
        inputs[0].c_str(), make_updates_path.c_str(), u.num_vertices, u.size(),
        delete_fraction, static_cast<unsigned long long>(seed));
    return 0;
  }

  if (!updates_path.empty()) {
    std::vector<RunRecord> records;
    bool all_connected = true;
    for (double eps : eps_list)
      for (double rho : rho_list) {
        // Each cell replays the file through a fresh stream: the dynamic
        // driver owns batching via its gutter, so the read granularity here
        // is just I/O chunking.
        const auto stream = graph::open_update_stream(updates_path);
        std::printf("%s: n=%u, %zu updates\n", updates_path.c_str(),
                    stream->num_vertices(), stream->num_updates());
        sparsify::DynamicOptions dopt;
        dopt.epsilon = eps;
        dopt.rho = rho;
        dopt.t = t;
        dopt.keep_probability = keep;
        dopt.seed = seed;
        dopt.batch_updates = batch_updates;
        support::Timer timer;
        sparsify::DynamicSparsifier dyn(stream->num_vertices(), dopt);
        graph::UpdateBatch batch;
        while (stream->next_batch(batch, batch_updates) > 0) dyn.apply(batch);
        sparsify::DynCheckpoint cp = dyn.checkpoint();
        const double ms = timer.millis();
        const graph::Graph live = dyn.live_graph();

        RunRecord rec;
        rec.input = updates_path;
        rec.method = "koutis-dynamic";
        rec.n = live.num_vertices();
        rec.m = live.num_edges();
        rec.eps = eps;
        rec.rho = rho;
        rec.t = t;
        rec.seed = seed;
        rec.ms = ms;
        rec.report = sparsify::quality_report(live, cp.sparsifier);
        rec.dynamic = true;
        rec.updates = stream->num_updates();
        rec.certified_epsilon = cp.certified_epsilon;
        rec.dyn = dyn.stats();
        const auto& q = rec.report;
        const auto& d = rec.dyn;
        std::printf(
            "  dynamic eps=%g rho=%g: live %zu -> %zu edges (%.2fx) in %.1f "
            "ms, certified eps %.4f; quad [%.4f, %.4f] cut [%.4f, %.4f] %s\n",
            eps, rho, q.edges_original, q.edges_sparsifier, q.edge_reduction(),
            ms, rec.certified_epsilon, q.min_quadratic_ratio,
            q.max_quadratic_ratio, q.min_cut_ratio, q.max_cut_ratio,
            q.sparsifier_connected ? "connected" : "DISCONNECTED");
        std::printf(
            "    dyn: %zu batches, %llu ins / %llu del / %llu cancelled, "
            "%.0f updates/s, levels %zu (%zu dirtied), %zu carries / %zu "
            "re-reduces / %zu rebuilds, peak resident %zu\n",
            d.batches, static_cast<unsigned long long>(d.inserts_applied),
            static_cast<unsigned long long>(d.deletes_applied),
            static_cast<unsigned long long>(d.cancelled_pairs),
            ms > 0.0 ? 1e3 * static_cast<double>(d.metrics.updates_ingested) / ms
                     : 0.0,
            d.levels_used, d.levels_dirtied, d.carry_reduces, d.re_reduces,
            d.rebuilds, d.peak_resident_edges);
        all_connected = all_connected && q.sparsifier_connected;
        records.push_back(std::move(rec));
        if (!out_path.empty()) {
          graph::save_graph(out_path, cp.sparsifier);
          std::printf("  wrote %s (%s)\n", out_path.c_str(),
                      graph::format_name(graph::format_from_extension(out_path)));
        }
      }
    if (!json_path.empty()) {
      write_json(json_path, records);
      std::printf("wrote %s (%zu runs)\n", json_path.c_str(), records.size());
    }
    return all_connected ? 0 : 3;
  }

  const std::size_t cells =
      inputs.size() * methods.size() * eps_list.size() * rho_list.size();
  if (!out_path.empty() && cells != 1)
    throw Error("--out needs a single (input x method x eps x rho) cell, got " +
                std::to_string(cells));

  std::vector<RunRecord> records;
  bool all_connected = true;
  for (const std::string& spec : inputs) {
    const graph::Graph input = load_input(spec);
    // Stream mode sparsifies the raw stream: no component reduction.
    graph::InducedSubgraph comp;
    if (!stream_mode) comp = graph::largest_component(input);
    const bool reduced =
        !stream_mode && comp.graph.num_vertices() != input.num_vertices();
    if (reduced)
      std::printf("%s: disconnected; using largest component: %u of %u vertices\n",
                  spec.c_str(), comp.graph.num_vertices(), input.num_vertices());
    const graph::Graph& g = stream_mode ? input : comp.graph;
    std::printf("%s: n=%u m=%zu total weight %.6g\n", spec.c_str(), g.num_vertices(),
                g.num_edges(), g.total_weight());
    const bool stream_from_memory = stream_mode && spec.rfind("gen:", 0) == 0;
    graph::EdgeArena gen_arena;
    if (stream_from_memory) gen_arena.assign(g);

    for (const std::string& method : methods)
      for (double eps : eps_list)
        for (double rho : rho_list) {
          support::Timer timer;
          graph::Graph sparse;
          sparsify::StreamReport stream_report;
          if (stream_mode) {
            sparsify::StreamOptions sopt;
            sopt.epsilon = eps;
            sopt.rho = rho;
            sopt.t = t;
            sopt.keep_probability = keep;
            sopt.seed = seed;
            sopt.batch_edges = batch_edges;
            sparsify::StreamResult sr =
                stream_from_memory ? sparsify::stream_sparsify(gen_arena.view(), sopt)
                                   : sparsify::stream_sparsify_file(spec, sopt);
            sparse = std::move(sr.sparsifier);
            stream_report = std::move(sr.report);
          } else {
            sparse = run_method(g, method, eps, rho, t, seed, keep);
          }
          const double ms = timer.millis();
          RunRecord rec;
          rec.input = spec;
          rec.method = stream_mode ? "koutis-stream" : method;
          rec.n = g.num_vertices();
          rec.m = g.num_edges();
          rec.reduced_to_component = reduced;
          rec.eps = eps;
          rec.rho = rho;
          rec.t = t;
          rec.seed = seed;
          rec.ms = ms;
          rec.report = sparsify::quality_report(g, sparse);
          rec.stream = stream_mode;
          rec.stream_report = stream_report;
          const auto& q = rec.report;
          std::printf(
              "  method=%s eps=%g rho=%g: %zu -> %zu edges (%.2fx) in %.1f ms; "
              "quad [%.4f, %.4f] cut [%.4f, %.4f] %s\n",
              rec.method.c_str(), eps, rho, q.edges_original, q.edges_sparsifier,
              q.edge_reduction(), ms, q.min_quadratic_ratio, q.max_quadratic_ratio,
              q.min_cut_ratio, q.max_cut_ratio,
              q.sparsifier_connected ? "connected" : "DISCONNECTED");
          if (stream_mode) {
            const auto& s = rec.stream_report;
            std::printf(
                "    stream: %zu batches of <=%zu, peak resident %zu edges "
                "(%.2fx final), %zu passes over %zu levels, depth %zu/%zu, "
                "eps/level %.4f\n",
                s.batches, s.batch_edges, s.peak_resident_edges,
                s.final_edges > 0 ? static_cast<double>(s.peak_resident_edges) /
                                        static_cast<double>(s.final_edges)
                                  : 0.0,
                s.sparsify_calls, s.levels_used, s.depth_used, s.depth_planned,
                s.per_level_epsilon);
          }
          all_connected = all_connected && q.sparsifier_connected;
          if (solve_rhs > 0 && q.sparsifier_connected) try {
            // Solver fields: batched chain-PCG Laplacian solve on the
            // sparsifier for K random mean-free right-hand sides, chain built
            // once (solve_sdd_multi). Demonstrates the downstream use of the
            // sparsifier and reports solve cost next to the quality numbers.
            std::vector<linalg::Vector> cols;
            for (std::size_t j = 0; j < solve_rhs; ++j) {
              support::Rng rng(support::mix64(seed, 0x501feULL + j));
              linalg::Vector b(sparse.num_vertices());
              for (double& v : b) v = rng.normal();
              linalg::remove_mean(b);
              cols.push_back(std::move(b));
            }
            const solver::SDDMatrix sm{graph::Graph(sparse)};
            solver::SolveOptions solve_opt;
            solve_opt.chain.rho = 8.0;
            solve_opt.chain.t = 1;
            solve_opt.chain.seed = seed;
            support::Timer solve_timer;
            const auto solve =
                solver::solve_sdd_multi(sm, linalg::MultiVector::from_columns(cols),
                                        solve_opt);
            rec.solve_ms = solve_timer.millis();
            rec.solve_rhs = solve_rhs;
            rec.solve_converged = solve.all_converged();
            rec.solve_chain_levels = solve.chain_levels;
            rec.solve_chain_nnz = solve.chain_total_nnz;
            for (const auto& col : solve.columns) {
              rec.solve_iters_max = std::max(rec.solve_iters_max, col.iterations);
              rec.solve_residual_max =
                  std::max(rec.solve_residual_max, col.relative_residual);
            }
            std::printf(
                "    solve: %zu rhs batched in %.1f ms, <=%zu iterations, "
                "max residual %.2e, chain %zu levels / %zu nnz%s\n",
                rec.solve_rhs, rec.solve_ms, rec.solve_iters_max,
                rec.solve_residual_max, rec.solve_chain_levels, rec.solve_chain_nnz,
                rec.solve_converged ? "" : " (NOT CONVERGED)");
          } catch (const std::exception& err) {
            // Chain construction can legitimately fail on degenerate inputs
            // (e.g. squaring a tiny cycle empties a level's diagonal). One
            // cell's solve must not kill the whole batch: drop the solver
            // fields for this cell and keep going.
            rec.solve_rhs = 0;
            std::printf("    solve: failed (%s)\n", err.what());
          } else if (solve_rhs > 0) {
            std::printf("    solve: skipped (sparsifier disconnected)\n");
          }
          records.push_back(std::move(rec));
          if (!out_path.empty()) {
            graph::save_graph(out_path, sparse);
            std::printf("  wrote %s (%s)\n", out_path.c_str(),
                        graph::format_name(graph::format_from_extension(out_path)));
          }
        }
  }

  if (!json_path.empty()) {
    write_json(json_path, records);
    std::printf("wrote %s (%zu runs)\n", json_path.c_str(), records.size());
  }
  return all_connected ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& err) {
    // Everything, not just spar::Error: a bad_alloc or a stray logic_error
    // used to escape as std::terminate with no message at all.
    std::fprintf(stderr, "sparsify_tool: error: %s\n", err.what());
    return 1;
  }
}
