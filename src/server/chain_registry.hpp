// Resident chain registry: named graphs with prebuilt inverse chains.
//
// The whole point of the solver service is that chain construction (the
// expensive PARALLELSPARSIFY tower, E9: orders of magnitude more work than
// one solve) happens ONCE per graph and every subsequent request reuses the
// resident InverseChain. The registry is the server-side cache that makes
// that true under concurrency and bounded memory:
//
//  * get-or-build is SINGLE-FLIGHT: when k requests for a cold graph arrive
//    together, one thread builds while the other k-1 wait on a shared
//    future -- never k duplicate builds of the same tower.
//  * eviction is LRU under a byte budget: entries are approximately costed
//    (chain nonzeros + per-level diagonals + the source graph) and the
//    least-recently-used chains are dropped when the budget is exceeded.
//    The most-recently-used entry is never evicted, so a budget smaller
//    than one chain still serves (it just rebuilds every time).
//  * eviction never invalidates in-flight solves: acquire() hands out
//    shared_ptr handles, so an evicted entry stays alive until the last
//    solve using it completes. Eviction drops the REGISTRY's reference.
//  * rebuild-after-evict is exact: chains are built deterministically from
//    the stored graph with the registry's fixed ChainOptions (seeded
//    sparsification), so a rebuilt chain is bit-identical to the evicted
//    one and responses stay reproducible across evictions.
//
// Thread safety: every public method is safe to call concurrently. Builds
// run OUTSIDE the registry mutex (only bookkeeping is locked), so a slow
// build never blocks hits on other graphs.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "solver/chain.hpp"

namespace spar::server {

/// Settings of a ChainRegistry.
struct RegistryOptions {
  /// Byte budget for resident chains; 0 = unlimited. The most-recently-used
  /// entry is exempt so a tiny budget degrades to rebuild-per-request
  /// instead of failing.
  std::size_t memory_budget_bytes = 0;
  /// Chain construction options shared by every build (fixed seed -> every
  /// rebuild of a graph yields the bit-identical chain).
  solver::ChainOptions chain;
};

/// One resident graph + its prebuilt chain. Immutable after construction;
/// handed out by shared_ptr so eviction can never pull it out from under an
/// in-flight solve.
struct ChainEntry {
  std::string name;            ///< registry key the entry was built for
  solver::SDDMatrix matrix;    ///< the graph's Laplacian
  solver::InverseChain chain;  ///< chain built from `matrix` with the registry's options
  std::size_t memory_bytes = 0;  ///< approximate resident cost (see .cpp)
};

using ChainHandle = std::shared_ptr<const ChainEntry>;

/// Per-graph counters, exposed by stats().
struct ChainStats {
  std::string name;              ///< registry key
  std::uint64_t hits = 0;        ///< acquire() served from the resident entry
  std::uint64_t builds = 0;      ///< chain constructions (cold or post-evict)
  std::uint64_t evictions = 0;   ///< times the entry was dropped for budget
  std::uint64_t build_micros = 0;  ///< total wall time spent building
  bool resident = false;         ///< entry currently held by the registry
  std::size_t memory_bytes = 0;  ///< cost of the resident entry (0 if not)
};

/// Named graphs with their inverse chains kept resident under a byte budget
/// (least recently used evicted first); thread-safe.
class ChainRegistry {
 public:
  /// Empty registry; every chain is built with options.chain.
  explicit ChainRegistry(RegistryOptions options = {});

  /// Installs (or replaces) the graph behind `name`. Replacing drops any
  /// resident chain for the old graph and invalidates in-flight builds of
  /// it (their result is discarded, never installed); in-flight handles
  /// stay valid.
  void put_graph(const std::string& name, graph::Graph g);

  /// True once put_graph(name, ...) has run.
  bool has_graph(const std::string& name) const;

  /// Returns the resident chain for `name`, building it if necessary.
  /// Single-flight: concurrent cold acquires share one build. Throws
  /// spar::Error if the name was never registered.
  ChainHandle acquire(const std::string& name);

  /// Sum of memory_bytes over resident entries.
  std::size_t resident_bytes() const;

  /// Counters for every registered name, sorted by name.
  std::vector<ChainStats> stats() const;

  /// The options the registry was constructed with.
  const RegistryOptions& options() const { return options_; }

 private:
  struct Slot {
    std::shared_ptr<const graph::Graph> graph;
    ChainHandle entry;                          ///< null when not resident
    std::shared_future<ChainHandle> building;   ///< valid while a build runs
    /// Bumped by put_graph. A build captures the generation of the graph it
    /// started from and only installs its chain if the slot still has it --
    /// a chain built from a replaced graph must never become resident.
    std::uint64_t generation = 0;
    std::uint64_t last_use = 0;
    ChainStats stats;
  };

  /// Drops least-recently-used entries until the budget holds; never drops
  /// the entry with the highest last_use. Caller holds mu_.
  void evict_to_budget_locked();

  RegistryOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, Slot> slots_;
  std::uint64_t clock_ = 0;          ///< monotonic LRU tick
  std::size_t resident_bytes_ = 0;
};

}  // namespace spar::server
