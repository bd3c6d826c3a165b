#include "server/service.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "solver/solver.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/timer.hpp"

namespace spar::server {

using Clock = std::chrono::steady_clock;

namespace {

std::uint64_t micros_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

/// Rejects batching limits the dispatcher cannot honour. Runs in the member
/// initializer list, before the dispatcher thread starts.
ServiceOptions checked(ServiceOptions options) {
  SPAR_CHECK(options.max_batch >= 1, "SolverService: max_batch must be at least 1");
  SPAR_CHECK(options.deadline_us <= kMaxDeadlineUs,
             "SolverService: deadline_us must be at most one hour (3600000000)");
  return options;
}

}  // namespace

SolverService::SolverService(ServiceOptions options)
    : options_(checked(std::move(options))),
      registry_(options_.registry),
      pool_(options_.threads),
      dispatcher_([this] { dispatcher_main(); }) {}

SolverService::~SolverService() { shutdown(); }

void SolverService::put_graph(const std::string& name, graph::Graph g) {
  registry_.put_graph(name, std::move(g));
}

void SolverService::submit(const std::string& name, linalg::Vector rhs, Callback cb) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) throw spar::Error("solver service: submit after shutdown");
    queue_.push_back(Pending{name, std::move(rhs), std::move(cb), Clock::now()});
    ++stats_.requests;
  }
  queue_cv_.notify_one();
}

void SolverService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && !dispatcher_.joinable()) return;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // The dispatcher exits only once the queue is empty; wait for dispatched
  // batches still running on the pool.
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

bool SolverService::next_batch(Batch& out) {
  std::unique_lock<std::mutex> lock(mu_);
  queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
  if (queue_.empty()) return false;  // stopping and drained

  // Seed the batch with the oldest request; only same-graph requests may
  // join it (one blocked solve = one matrix).
  out.clear();
  out.push_back(std::move(queue_.front()));
  queue_.pop_front();
  // Copy, not reference: admitting push_backs may reallocate `out`.
  const std::string name = out.front().name;
  const std::size_t max_batch = options_.max_batch;
  const auto deadline =
      out.front().enqueued + std::chrono::microseconds(options_.deadline_us);

  bool deadline_close = false;
  const std::size_t executors = static_cast<std::size_t>(pool_.workers());
  while (out.size() < max_batch) {
    // Admit every queued same-graph request, oldest first.
    for (auto it = queue_.begin(); it != queue_.end() && out.size() < max_batch;) {
      if (it->name == name) {
        out.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    if (out.size() >= max_batch) break;
    // Batch not full: hold for more arrivals until the OLDEST member's
    // deadline. Stopping forfeits the wait -- drain fast, batches may
    // close small.
    if (stopping_) {
      deadline_close = true;
      break;
    }
    const bool expired = Clock::now() >= deadline;
    if (expired && in_flight_ < executors) {
      deadline_close = true;
      break;
    }
    if (expired) {
      // Every pool worker is busy: closing now cannot start the solve any
      // sooner, it only fragments the queue into undersized batches that
      // pile up behind the running one. Keep admitting until a worker
      // frees (execute() signals queue_cv_) or the batch fills.
      queue_cv_.wait(lock);
    } else {
      queue_cv_.wait_until(lock, deadline);
    }
  }

  ++stats_.batches;
  if (out.size() >= 2) stats_.batched_requests += out.size();
  stats_.max_batch_seen = std::max(stats_.max_batch_seen, out.size());
  if (deadline_close && out.size() < max_batch)
    ++stats_.deadline_closes;
  else
    ++stats_.size_closes;
  ++in_flight_;
  return true;
}

void SolverService::dispatcher_main() {
  Batch batch;
  while (next_batch(batch)) {
    // Pool workers keep the pool "current", so the blocked solve's parallel
    // loops run on the same workers -- and the dispatcher is immediately
    // free to form the next batch while this one solves.
    pool_.submit([this, b = std::move(batch)]() mutable { execute(std::move(b)); });
    batch = Batch();
  }
}

void SolverService::execute(Batch batch) {
  const auto dispatched = Clock::now();
  auto finish_all = [&](const std::string& error) {
    for (Pending& p : batch) {
      SolveResult r;
      r.error = error;
      r.batch_cols = static_cast<std::uint32_t>(batch.size());
      r.queue_us = micros_between(p.enqueued, dispatched);
      if (p.cb) p.cb(std::move(r));
    }
  };

  try {
    const ChainHandle entry = registry_.acquire(batch.front().name);
    const std::size_t n = entry->matrix.dimension();
    for (const Pending& p : batch)
      if (p.rhs.size() != n)
        throw spar::Error("solve: rhs has " + std::to_string(p.rhs.size()) +
                          " entries, graph \"" + p.name + "\" has " +
                          std::to_string(n));

    std::vector<linalg::Vector> cols;
    cols.reserve(batch.size());
    for (Pending& p : batch) cols.push_back(std::move(p.rhs));
    const linalg::MultiVector b = linalg::MultiVector::from_columns(cols);

    solver::SolveOptions opt;
    opt.tolerance = options_.tolerance;
    opt.max_iterations = options_.max_iterations;
    opt.chain = registry_.options().chain;

    support::Timer timer;
    const auto report = solver::solve_sdd_multi(entry->matrix, entry->chain, b, opt);
    const auto solve_us = static_cast<std::uint64_t>(timer.seconds() * 1e6);

    for (std::size_t j = 0; j < batch.size(); ++j) {
      SolveResult r;
      r.ok = true;
      r.solution = report.solutions.column_copy(j);
      r.iterations = report.columns[j].iterations;
      r.relative_residual = report.columns[j].relative_residual;
      r.converged = report.columns[j].converged;
      r.batch_cols = static_cast<std::uint32_t>(batch.size());
      r.queue_us = micros_between(batch[j].enqueued, dispatched);
      r.solve_us = solve_us;
      if (batch[j].cb) batch[j].cb(std::move(r));
    }
  } catch (const std::exception& e) {
    finish_all(e.what());
  } catch (...) {
    finish_all("unknown error in batch execution");
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
  }
  drained_cv_.notify_all();
  // A freed worker may let a deadline-expired batch close (see next_batch).
  queue_cv_.notify_all();
}

ServiceStats SolverService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string SolverService::stats_json() const {
  const ServiceStats s = stats();
  std::ostringstream out;
  out << "{\"requests\":" << s.requests << ",\"batches\":" << s.batches
      << ",\"batched_requests\":" << s.batched_requests
      << ",\"size_closes\":" << s.size_closes
      << ",\"deadline_closes\":" << s.deadline_closes
      << ",\"max_batch_seen\":" << s.max_batch_seen
      << ",\"max_batch\":" << options_.max_batch
      << ",\"deadline_us\":" << options_.deadline_us
      << ",\"registry\":{\"resident_bytes\":" << registry_.resident_bytes()
      << ",\"budget_bytes\":" << registry_.options().memory_budget_bytes
      << ",\"chains\":[";
  const auto chains = registry_.stats();
  for (std::size_t i = 0; i < chains.size(); ++i) {
    const ChainStats& c = chains[i];
    out << (i ? "," : "") << "{\"name\":\"" << support::json_escape(c.name)
        << "\",\"hits\":" << c.hits << ",\"builds\":" << c.builds
        << ",\"evictions\":" << c.evictions
        << ",\"build_micros\":" << c.build_micros
        << ",\"resident\":" << (c.resident ? "true" : "false")
        << ",\"memory_bytes\":" << c.memory_bytes << "}";
  }
  out << "]}}";
  return out.str();
}

}  // namespace spar::server
