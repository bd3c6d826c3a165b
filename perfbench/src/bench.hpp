// Shared pieces of the spar_perf benchmark: run configuration, the report a
// workload fills in, sample statistics, and the in-memory span tracer.
//
// A workload runs in one of two modes. Untraced, it times its operations and
// reports the end-to-end metrics. Traced, it runs the same loop with a span
// around every call into the library, then times the public functions of
// each layer on its own input and reports the per-layer metrics. Spans live
// in memory and are written out once, when the workload ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The time point `seconds` from now.
inline Clock::time_point seconds_from_now(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured loop
  bool trace = false;
  std::string workdir;    ///< input/output files and the span dump go here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back. `metrics` is the machine-read set: end-to-end
/// metrics when untraced, per-layer metrics when traced. `named` holds the
/// same end-to-end quantities under the workload's own names (sparsify_job_s,
/// solve_p50_ms, ...), printed for people.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Each deliberately wrong answer of the self-test was counted as failed.
  bool self_test_ok = false;
  std::vector<Metric> metrics;
  std::vector<Metric> named;
  std::vector<std::string> failures;  ///< first few failure messages

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void label(std::string name, double value, std::string unit) {
    named.push_back({std::move(name), value, std::move(unit)});
  }
  /// Count one checked operation; `why` is empty when it passed.
  void record(const std::string& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
};

/// Median of a sample (0 for an empty one).
double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);
/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// In-memory span recorder. A span has a name, start and end times, its own
/// id, the id of the span open on the same thread when it began (its cause),
/// and the id of its root, which all spans of one request or job share.
/// Disabled, it records nothing and a Span reads no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  class Span {
   public:
    Span(Tracer& tracer, const char* name);
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// End the span now (idempotent); returns its duration in seconds.
    double close();

   private:
    Tracer* tracer_;
    const char* name_;
    std::uint64_t id_ = 0, parent_ = 0, root_ = 0;
    Clock::time_point start_;
    bool open_ = false;
  };

  /// Median duration in seconds of the closed spans with this name.
  double median_s(const std::string& name) const;
  /// Write every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    std::uint64_t id, parent, root;
    double start_s, end_s;
  };
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;  // guards records_ and next_id_
  std::vector<Record> records_;
  std::uint64_t next_id_ = 1;
};

/// The workloads. Each fills `report`: the checked operation counts, the
/// self-test verdict, and the metrics of its mode (cfg.trace).
void run_sparsify_dense(const Config& cfg, Tracer& tracer, Report& report);
void run_solve_grid(const Config& cfg, Tracer& tracer, Report& report);
void run_dynamic_turnstile(const Config& cfg, Tracer& tracer, Report& report);

}  // namespace perfbench
