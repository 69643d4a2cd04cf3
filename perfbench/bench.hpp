#pragma once
// Shared pieces of the RVaaS wire benchmark: run options, the metric and
// result records main() prints, sample statistics, and the in-memory
// span recorder behind the traced run.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point from) {
  return std::chrono::duration<double, std::milli>(Clock::now() - from)
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value
};

/// What one workload run produced. `metrics` is the contract set (every
/// end-to-end metric untraced, every per-layer metric traced); `diagnostics`
/// are printed for people and never compared.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::vector<Metric> diagnostics;

  void fail(std::string what) {
    ++failed;
    if (errors.size() < 32) errors.push_back(std::move(what));
  }
  bool correct() const { return failed == 0 && errors.empty(); }
};

/// Linear-interpolated percentile (p in [0, 100]); 0 for no samples.
double percentile(std::vector<double> values, double p);
double median(const std::vector<double>& values);

/// Spans of the traced run. Each span has a name, start, end, parent and
/// request id; they stay in memory and are written out once at exit. Safe to
/// use from several threads.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;  ///< since the tracer was created
    std::int64_t end_ns = 0;
  };

  Tracer() : epoch_(Clock::now()) {}

  std::uint32_t open(const char* name, std::uint32_t parent,
                     std::uint64_t request);
  void close(std::uint32_t id);

  /// Self time (duration minus the direct children's durations) of every
  /// closed span, in microseconds, grouped by span name.
  std::map<std::string, std::vector<double>> self_us() const;
  /// For every root span named `root`: the self time in microseconds of
  /// its descendants summed by layer (the span name up to its first '.'),
  /// keyed by root span id. The root's own self time is not counted.
  std::map<std::uint32_t, std::map<std::string, double>> layer_us_by_root(
      const std::string& root) const;
  /// Durations in microseconds of closed spans named `name`.
  std::vector<double> durations_us(const std::string& name) const;

  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing, so traced and untraced runs
/// execute the same code.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint32_t parent = 0,
        std::uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->open(name, parent, request) : 0) {}
  ~Scope() {
    if (tracer_) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

/// Wire sessions the workload runs (query_warm, query_cold or churn_alert).
std::size_t session_count(const std::string& workload);

/// Runs one workload (query_warm, query_cold or churn_alert).
Result run_workload(const Options& options);

}  // namespace perfbench
