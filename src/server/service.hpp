// SolverService: the solver-as-a-service core -- an admission queue that
// coalesces concurrently arriving right-hand sides for the same graph into
// blocked solve_sdd_multi calls over registry-resident chains.
//
// Why batching wins: solve_sdd_multi traverses each chain level's CSR once
// per iteration for ALL columns in the block (PR 5 measured 2.5-3.5x total
// throughput at k = 16 vs per-RHS solves). A service with concurrent
// clients can manufacture that block shape at runtime: hold the first
// request of a batch for at most deadline_us, admit same-graph arrivals
// until the batch reaches max_batch columns, then dispatch. The tradeoff is
// explicit and bounded:
//
//   batch closes at max_batch columns  -> throughput-optimal block
//   ... or at the OLDEST request's     -> p99 latency never pays more than
//       deadline_us, whichever first      deadline_us of queueing
//
// Coalescing invariance: solve_sdd_multi's per-column bit-identity contract
// means a request's solution does not depend on WHICH batch served it or on
// how many neighbours it had -- responses are bit-identical to a standalone
// solve_sdd against the same chain. Batching changes throughput, never
// bytes. The load generator asserts exactly this end to end.
//
// Execution: batches are dispatched onto the service's persistent TaskPool
// (support/task_pool.hpp). Pool workers are "current" on the pool, so the
// blocked kernels' parallel_for calls nest into the same workers -- no
// oversubscription, and chunk-deterministic results (identical across
// backends) by the substrate's contract.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "linalg/multivector.hpp"
#include "server/chain_registry.hpp"
#include "support/task_pool.hpp"

namespace spar::server {

/// Largest ServiceOptions::deadline_us the service accepts: one hour. Far
/// below the ~9.2e15 us at which the deadline's nanosecond arithmetic would
/// overflow.
inline constexpr std::uint64_t kMaxDeadlineUs = 3'600'000'000ULL;

/// Batching and solve settings of a SolverService; the constructor rejects a
/// max_batch of 0 and a deadline_us above kMaxDeadlineUs.
struct ServiceOptions {
  /// Max right-hand sides coalesced into one blocked solve (>= 1). 1
  /// dispatches every request alone, the per-request baseline the E15 bench
  /// compares against.
  std::size_t max_batch = 16;
  /// Max microseconds the oldest request of a forming batch may queue
  /// before the batch is dispatched regardless of size (<= kMaxDeadlineUs).
  std::uint64_t deadline_us = 2000;
  double tolerance = 1e-8;             ///< per-solve target relative residual
  std::size_t max_iterations = 20000;  ///< per-solve PCG iteration cap
  RegistryOptions registry;            ///< chain cache budget + build options
  /// TaskPool worker threads backing batch execution (clamped to >= 1).
  int threads = 1;
};

/// Outcome of one submitted request, delivered to its callback.
struct SolveResult {
  bool ok = false;                 ///< false: the batch failed, see error
  std::string error;               ///< set when !ok
  linalg::Vector solution;         ///< x with L x ~ rhs (empty when !ok)
  std::uint64_t iterations = 0;    ///< PCG iterations this column took
  double relative_residual = 0.0;  ///< ||b - L x|| / ||b|| at exit
  bool converged = false;          ///< relative_residual reached the tolerance
  std::uint32_t batch_cols = 0;    ///< columns in the batch that served this
  std::uint64_t queue_us = 0;      ///< submit -> dispatch wait
  std::uint64_t solve_us = 0;      ///< blocked solve wall time (whole batch)
};

/// Service-level counters (registry counters live in ChainRegistry::stats).
struct ServiceStats {
  std::uint64_t requests = 0;         ///< requests submitted
  std::uint64_t batches = 0;          ///< blocked solves dispatched
  std::uint64_t batched_requests = 0; ///< requests served in a batch with k >= 2
  std::uint64_t size_closes = 0;      ///< batches closed by reaching max_batch
  std::uint64_t deadline_closes = 0;  ///< batches closed by deadline expiry
  std::size_t max_batch_seen = 0;     ///< widest batch dispatched so far
};

/// Admission queue + dispatcher thread + TaskPool: coalesces same-graph
/// requests into blocked solves over the registry's chains.
class SolverService {
 public:
  /// Receives one request's outcome, on a service thread.
  using Callback = std::function<void(SolveResult)>;

  /// Starts the dispatcher. Throws spar::Error if options.max_batch is 0 or
  /// options.deadline_us exceeds kMaxDeadlineUs.
  explicit SolverService(ServiceOptions options);
  /// Runs shutdown(): queued requests are still served.
  ~SolverService();
  SolverService(const SolverService&) = delete;             ///< not copyable
  SolverService& operator=(const SolverService&) = delete;  ///< not copyable

  /// Installs (or replaces) a named graph in the registry.
  void put_graph(const std::string& name, graph::Graph g);

  /// Enqueues one solve of L(name) x = rhs. The callback fires exactly once,
  /// from a service thread, when the request's batch completes (or fails).
  /// Throws spar::Error after shutdown() has begun.
  void submit(const std::string& name, linalg::Vector rhs, Callback cb);

  /// Stops admission, drains every queued request (their callbacks still
  /// fire), and joins the dispatcher. Idempotent.
  void shutdown();

  /// Snapshot of the service counters.
  ServiceStats stats() const;
  /// The chain registry behind the service (its own counters and budget).
  const ChainRegistry& registry() const { return registry_; }

  /// Everything above as a JSON object (service counters + per-chain
  /// registry stats), for the kStats RPC and ops logging.
  std::string stats_json() const;

 private:
  struct Pending {
    std::string name;
    linalg::Vector rhs;
    Callback cb;
    std::chrono::steady_clock::time_point enqueued;
  };
  using Batch = std::vector<Pending>;

  void dispatcher_main();
  /// Collects the next batch under the queue lock discipline; returns false
  /// when stopping and drained.
  bool next_batch(Batch& out);
  /// Runs one batch: acquire chain, blocked solve, per-column callbacks.
  void execute(Batch batch);

  ServiceOptions options_;
  ChainRegistry registry_;
  support::par::TaskPool pool_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;    ///< arrivals wake the dispatcher
  std::condition_variable drained_cv_;  ///< in-flight batches -> shutdown
  std::deque<Pending> queue_;
  ServiceStats stats_;
  std::size_t in_flight_ = 0;  ///< batches dispatched, not yet completed
  bool stopping_ = false;

  std::thread dispatcher_;
};

}  // namespace spar::server
