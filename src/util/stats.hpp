#pragma once
// Lightweight measurement helpers for the benchmark harnesses: a sample
// accumulator with percentiles and an aligned table printer.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rvaas::util {

/// Accumulates double-valued samples; supports mean/stddev/min/max and
/// percentile queries.
class Samples {
 public:
  void add(double v);

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double min() const;
  double max() const;
  double mean() const;
  double stddev() const;
  double sum() const { return sum_; }
  /// p in [0, 100]; linear interpolation between the two nearest ranks of
  /// the sorted samples.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  const std::vector<double>& values() const { return values_; }

 private:
  void ensure_sorted() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  double sum_ = 0;
};

/// Aligned plain-text table the benches print their results as.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);
  /// Renders with column alignment; includes a separator under the header.
  std::string to_string() const;
  void print() const;

  /// JSON array of row objects keyed by the header (all values as strings) —
  /// the machine-readable form the benches emit under --json for CI
  /// artifacts.
  std::string to_json() const;

  static std::string fmt(double v, int precision = 2);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Shared CLI of the bench mains.
struct BenchArgs {
  bool smoke = false;  ///< small sizes, few iterations (the CI mode)
  std::string json;    ///< --json FILE target; empty = no JSON output

  /// Parses [--smoke] [--json FILE]; exits with usage on anything else.
  static BenchArgs parse(int argc, char** argv);
};

/// Writes the sections as one JSON object, `{"name": <table-json>, ...}`,
/// led by a `host` section (nproc, compiler, build type and the git
/// revision the build was configured from) so every file says what
/// produced it. Returns false (with a message on stderr) on I/O failure.
bool write_json_tables(
    const std::string& path,
    const std::vector<std::pair<std::string, const Table*>>& sections);

}  // namespace rvaas::util
