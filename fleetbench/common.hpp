// Shared pieces of the fleet benchmark: the run's arguments, the span
// recorder used by traced runs, the metric report, and small statistics
// helpers. Nothing here calls into the program under test.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fleetbench {

using Clock = std::chrono::steady_clock;

/// Steady-clock time at static initialisation, i.e. process start; the
/// origin of every setup_s figure.
Clock::time_point process_start();

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;  // spans file + per-run scratch dir live here
  int threads = 1;      // min(4, nproc)
};

/// In-memory span log for traced runs. Each span wraps one call from the
/// benchmark into a public function of a program layer; spans nest through
/// a stack, so every span knows the span that caused it.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int open(const std::string& name);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (s) of every closed span named `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Writes one JSON line per span (name, start, end, parent, workload).
  bool write(const std::string& path, const std::string& workload) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = process_start();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when the log is disabled.
class Scope {
 public:
  Scope(SpanLog& log, const std::string& name)
      : log_(log), id_(log.enabled() ? log.open(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) log_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// What one run prints as its last line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records check failures; any failure makes the run incorrect.
  void fail(const std::vector<std::string>& errs, const std::string& where);
  std::string json_line() const;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

}  // namespace fleetbench
