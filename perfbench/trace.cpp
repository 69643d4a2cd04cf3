#include <algorithm>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::uint32_t Tracer::open(const char* name, std::uint32_t parent,
                           std::uint64_t request) {
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  span.start_ns = start;
  span.end_ns = -1;
  spans_.push_back(span);
  return span.id;
}

void Tracer::close(std::uint32_t id) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = end;
}

namespace {

double duration_us(const Tracer::Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
}

/// Self time of every closed span, indexed like the span vector.
std::vector<double> self_times_us(const std::vector<Tracer::Span>& spans) {
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ns >= 0) self[i] = duration_us(spans[i]);
  }
  for (const Tracer::Span& s : spans) {
    if (s.parent == 0 || s.end_ns < 0) continue;
    self[s.parent - 1] -= duration_us(s);
  }
  return self;
}

std::string layer_of(const char* name) {
  const std::string n(name);
  return n.substr(0, n.find('.'));
}

}  // namespace

std::map<std::string, std::vector<double>> Tracer::self_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = self_times_us(spans_);
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_ns >= 0) out[spans_[i].name].push_back(self[i]);
  }
  return out;
}

std::map<std::uint32_t, std::map<std::string, double>>
Tracer::layer_us_by_root(const std::string& root_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = self_times_us(spans_);
  std::map<std::uint32_t, std::map<std::string, double>> out;
  // Parents always precede children (ids are assigned at open), so one
  // forward pass resolves every span's root.
  std::vector<std::uint32_t> root(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    root[i] = s.parent == 0 ? s.id : root[s.parent - 1];
    if (s.end_ns < 0 || s.parent == 0) continue;
    if (root_name != spans_[root[i] - 1].name) continue;
    out[root[i]][layer_of(s.name)] += self[i];
  }
  return out;
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) out.push_back(duration_us(s));
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"request\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.id, s.parent, static_cast<unsigned long long>(s.request),
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
