// Workload dynamic-turnstile: synthesize_updates(K_1500, delete_fraction 0.2)
// (~1.35M inserts and deletes), written once as SPARDYN and read back through
// BinaryUpdateStream into a DynamicSparsifier (eps = 0.5, other options at
// their defaults), with a checkpoint() after every block of kBlock updates.
// Stresses the graph (update stream) and sparsify layers with writes beside
// reads; never touches the solver or the server.
//
// One pass is a fresh sparsifier over the whole stream. Set-up: the first
// half of the stream plus its first checkpoint. The second half is timed.
// End-to-end: the latency of one timed block -- read, apply and checkpoint
// -- (median; checkpoint-only median and p90 printed), updates per second
// over the timed half, checkpoints included (median over passes), the final
// checkpoint's edges over the live edges, peak RSS.
// Traced: spans around every read, apply and checkpoint, the tower's own
// counters, and one parallel_sparsify of the final live graph as the
// from-scratch reference.
#include <algorithm>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"
#include "sparsify/dynamic.hpp"
#include "sparsify/sparsify.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

namespace sp = spar::sparsify;
using spar::graph::Graph;

constexpr spar::graph::Vertex kVertices = 1500;
constexpr double kDeleteFraction = 0.2;
constexpr double kEpsilon = 0.5;
constexpr std::size_t kBlock = std::size_t{1} << 16;  // one tower batch
constexpr std::size_t kMinPasses = 2;

struct Pass {
  double setup_s = 0.0;
  double timed_s = 0.0;
  std::size_t timed_updates = 0;
  std::vector<double> checkpoint_s;
  std::vector<double> block_s;  ///< read + apply + checkpoint of each timed block
  double read_s = 0.0, apply_s = 0.0;  ///< timed half, traced runs only
  sp::DynStats stats;
  double keep_ratio = 0.0;
};

std::string check_certificate(const sp::DynCheckpoint& c) {
  if (c.certified_epsilon <= kEpsilon) return {};
  return "certified_epsilon " + std::to_string(c.certified_epsilon) + " above eps";
}

/// Read up to `limit` updates in blocks of kBlock and apply them, with a
/// checkpoint after each block when `checkpoints` is set. Returns how many
/// updates were applied.
std::size_t ingest(spar::graph::UpdateStream& stream, sp::DynamicSparsifier& dyn,
                   std::size_t limit, bool checkpoints, Tracer& tracer, Pass& pass,
                   Report& report, sp::DynCheckpoint& last) {
  spar::graph::UpdateBatch batch;
  std::size_t done = 0;
  while (done < limit) {
    const Clock::time_point block_start = Clock::now();
    Tracer::Span block(tracer, "block");
    Tracer::Span read(tracer, "graph.update_read");
    const std::size_t got = stream.next_batch(batch, std::min(kBlock, limit - done));
    pass.read_s += read.close();
    if (got == 0) break;
    {
      Tracer::Span s(tracer, "dyn.apply");
      dyn.apply(batch);
      pass.apply_s += s.close();
    }
    done += got;
    if (!checkpoints) continue;
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Span s(tracer, "dyn.checkpoint");
      last = dyn.checkpoint();
    }
    const Clock::time_point t1 = Clock::now();
    pass.checkpoint_s.push_back(seconds_between(t0, t1));
    pass.block_s.push_back(seconds_between(block_start, t1));
    report.record(check_certificate(last));
  }
  return done;
}

}  // namespace

void run_dynamic_turnstile(const Config& cfg, Tracer& tracer, Report& report) {
  const std::string path = cfg.workdir + "/k1500.spardyn";
  const spar::graph::UpdateBatch updates = spar::graph::synthesize_updates(
      spar::graph::complete_graph(kVertices), kDeleteFraction, cfg.seed);
  spar::graph::save_updates(path, updates);
  const Graph replayed = replay_updates(updates);

  sp::DynamicOptions options;
  options.epsilon = kEpsilon;

  std::vector<Pass> passes;
  Graph live;  // the last pass's live graph
  const Clock::time_point deadline = seconds_from_now(cfg.seconds);
  const std::size_t min_passes = cfg.trace ? 1 : kMinPasses;
  while (passes.size() < min_passes || Clock::now() < deadline) {
    Pass pass;
    Tracer::Span span(tracer, "pass");
    spar::graph::BinaryUpdateStream stream(path);
    const std::size_t half = stream.num_updates() / 2;
    sp::DynamicSparsifier dyn(stream.num_vertices(), options);
    sp::DynCheckpoint last;

    Clock::time_point t0 = Clock::now();
    ingest(stream, dyn, half, false, tracer, pass, report, last);
    {
      Tracer::Span s(tracer, "dyn.checkpoint");
      last = dyn.checkpoint();
    }
    pass.setup_s = seconds_between(t0, Clock::now());
    report.record(check_certificate(last));
    pass.read_s = pass.apply_s = 0.0;

    t0 = Clock::now();
    pass.timed_updates =
        ingest(stream, dyn, stream.num_updates() - half, true, tracer, pass, report, last);
    pass.timed_s = seconds_between(t0, Clock::now());
    span.close();

    // The final checkpoint: the live graph must replay the stream exactly,
    // and the served sparsifier must pass the probe against it.
    live = dyn.live_graph();
    std::string verdict = check_same_edges(live, replayed);
    if (verdict.empty())
      verdict = check_sparsifier(live, last.sparsifier, kEpsilon,
                                 spar::support::mix64(cfg.seed, passes.size()));
    report.record(verdict);
    pass.stats = dyn.stats();
    pass.keep_ratio = static_cast<double>(last.sparsifier.num_edges()) /
                      static_cast<double>(live.num_edges());
    passes.push_back(std::move(pass));
  }

  // Self-test: a live graph missing one edge must fail the replay check.
  {
    Graph short_one(live.num_vertices());
    for (std::size_t i = 1; i < live.num_edges(); ++i) {
      const spar::graph::Edge& e = live.edges()[i];
      short_one.add_edge(e.u, e.v, e.w);
    }
    report.self_test_ok = live.num_edges() > 0 &&
                          check_same_edges(live, replayed).empty() &&
                          !check_same_edges(short_one, replayed).empty();
  }

  std::vector<double> setup_s, ups, ckpt_s, block_s, keep, read_s, apply_s, ckpt_total_s;
  for (const Pass& p : passes) {
    setup_s.push_back(p.setup_s);
    ups.push_back(static_cast<double>(p.timed_updates) / p.timed_s);
    ckpt_s.insert(ckpt_s.end(), p.checkpoint_s.begin(), p.checkpoint_s.end());
    block_s.insert(block_s.end(), p.block_s.begin(), p.block_s.end());
    keep.push_back(p.keep_ratio);
    read_s.push_back(p.read_s);
    apply_s.push_back(p.apply_s);
    double total = 0.0;
    for (const double s : p.checkpoint_s) total += s;
    ckpt_total_s.push_back(total);
  }
  const double ckpt_p50_ms = median(ckpt_s) * 1e3;
  const double block_p50_ms = median(block_s) * 1e3;
  const double updates_per_s = median(ups);
  if (!cfg.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("op_p50_ms", block_p50_ms, "ms");
    report.metric("ops_per_s", updates_per_s, "1/s");
    report.metric("keep_ratio", median(keep), "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.label("dyn_updates_per_s", updates_per_s, "1/s");
    report.label("dyn_ckpt_p50_ms", ckpt_p50_ms, "ms");
    report.label("dyn_ckpt_p90_ms", percentile(ckpt_s, 0.9) * 1e3, "ms");
    report.label("dyn_block_p50_ms", block_p50_ms, "ms");
    report.label("checkpoints", static_cast<double>(ckpt_s.size()), "count");
    report.label("passes", static_cast<double>(passes.size()), "count");
    report.label("keep_ratio", median(keep), "ratio");
    report.label("peak_rss_mb", peak_rss_mb(), "MB");
    report.label("setup_s", median(setup_s), "s");
    return;
  }

  // From-scratch reference: one parallel_sparsify of the final live graph
  // with the tower's own pass settings.
  sp::SparsifyOptions whole;
  whole.epsilon = options.epsilon;
  whole.rho = options.rho;
  whole.t = options.t;
  whole.keep_probability = options.keep_probability;
  whole.seed = options.seed;
  double rebuild_s = 0.0;
  {
    Tracer::Span s(tracer, "sparsify.parallel_sparsify");
    const sp::SparsifyResult r = sp::parallel_sparsify(live, whole);
    rebuild_s = s.close();
  }

  const sp::DynStats& st = passes.back().stats;
  report.metric("trace.op_p50_ms", block_p50_ms, "ms");
  report.metric("graph.update_read_s", median(read_s), "s");
  report.metric("dyn.apply_s", median(apply_s), "s");
  report.metric("dyn.checkpoint_s", median(ckpt_total_s), "s");
  report.metric("dyn.reduce_per_update",
                static_cast<double>(st.metrics.reduce_edges) /
                    static_cast<double>(st.metrics.updates_ingested),
                "ratio");
  report.metric("dyn.re_reduces", static_cast<double>(st.re_reduces), "count");
  report.metric("dyn.carry_reduces", static_cast<double>(st.carry_reduces), "count");
  report.metric("dyn.rebuilds", static_cast<double>(st.rebuilds), "count");
  report.metric("dyn.peak_resident_edges", static_cast<double>(st.peak_resident_edges),
                "count");
  report.metric("dyn.rebuild_ref_s", rebuild_s, "s");
}

}  // namespace perfbench
