// Shared plumbing of the benchmark driver: run parameters, quantiles,
// the metric report, resource usage and the effort ledger.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Everything the driver was asked to do.  The workloads' settings are
/// constants of their own source files.
struct RunParams {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // trace, ledger and detail files go here
};

/// Ordered name -> (value, unit) map printed as the result's "metrics".
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Outcome of one workload run.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  // first few wrong outputs, for stderr
  Report metrics;
  /// Free-form JSON members (already encoded) for the detail record.
  std::vector<std::pair<std::string, std::string>> detail;

  void fail(const std::string& what);
  [[nodiscard]] bool correct() const { return failed == 0 && errors.empty(); }
};

std::string json_string(const std::string& text);
std::string json_number(double value);
std::string json_array(const std::vector<double>& values);

/// Peak resident set of this process / of its reaped children, in MiB.
double peak_rss_mb_self();
double peak_rss_mb_children();

/// Exact 1-thread effort counts of one item (an instance or a design).
struct Effort {
  std::int64_t nodes = 0;
  std::int64_t pivots = 0;
  std::int64_t refactorizations = 0;
  std::int64_t cover_cuts = 0;
  std::int64_t clique_cuts = 0;
  std::int64_t rc_fixed = 0;
  std::int64_t retries = 0;

  friend bool operator==(const Effort&, const Effort&) = default;
  [[nodiscard]] std::string to_json() const;
};

/// Compares this run's per-item effort counts with the ledger an earlier
/// run of the same build left under `path`, then stores them.  Returns
/// the ids whose counts differ (empty = identical or no earlier run).
std::vector<std::string> check_effort_ledger(
    const std::string& path, const std::string& build_id,
    const std::map<std::string, Effort>& counts);

/// Identifies the driver binary (size + mtime), so a ledger written by a
/// different build is replaced instead of compared.
std::string build_id(const char* argv0);

}  // namespace perfbench
