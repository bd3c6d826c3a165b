#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

namespace perfbench {

namespace {
thread_local std::uint64_t tls_open_span = 0;  // innermost open span on this thread
thread_local std::uint64_t tls_open_root = 0;
}  // namespace

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Tracer::Span::Span(Tracer& tracer, const char* name) : tracer_(&tracer), name_(name) {
  if (!tracer.enabled_) return;
  {
    std::lock_guard<std::mutex> lock(tracer.mu_);
    id_ = tracer.next_id_++;
  }
  parent_ = tls_open_span;
  root_ = parent_ == 0 ? id_ : tls_open_root;
  tls_open_span = id_;
  tls_open_root = root_;
  open_ = true;
  start_ = Clock::now();
}

double Tracer::Span::close() {
  if (!open_) return 0.0;
  const Clock::time_point end = Clock::now();
  open_ = false;
  tls_open_span = parent_;
  if (parent_ == 0) tls_open_root = 0;
  const Record r{name_, id_, parent_, root_, seconds_between(tracer_->origin_, start_),
                 seconds_between(tracer_->origin_, end)};
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->records_.push_back(r);
  return r.end_s - r.start_s;
}

double Tracer::median_s(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> durations;
  for (const Record& r : records_)
    if (name == r.name) durations.push_back(r.end_s - r.start_s);
  return median(std::move(durations));
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out.precision(9);
  for (const Record& r : records_)
    out << "{\"name\":\"" << r.name << "\",\"id\":" << r.id << ",\"parent\":" << r.parent
        << ",\"root\":" << r.root << ",\"start_s\":" << r.start_s
        << ",\"end_s\":" << r.end_s << "}\n";
}

}  // namespace perfbench
