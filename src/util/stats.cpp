#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "rvaas_revision.h"  // RVAAS_GIT_SHA, generated on every build
#include "util/ensure.hpp"

namespace rvaas::util {

void Samples::add(double v) {
  values_.push_back(v);
  sum_ += v;
  sorted_valid_ = false;
}

void Samples::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Samples::min() const {
  ensure(!values_.empty(), "Samples::min on empty set");
  ensure_sorted();
  return sorted_.front();
}

double Samples::max() const {
  ensure(!values_.empty(), "Samples::max on empty set");
  ensure_sorted();
  return sorted_.back();
}

double Samples::mean() const {
  ensure(!values_.empty(), "Samples::mean on empty set");
  return sum_ / static_cast<double>(values_.size());
}

double Samples::stddev() const {
  ensure(!values_.empty(), "Samples::stddev on empty set");
  const double m = mean();
  double acc = 0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size()));
}

double Samples::percentile(double p) const {
  ensure(!values_.empty(), "Samples::percentile on empty set");
  ensure(p >= 0 && p <= 100, "percentile must be in [0, 100]");
  ensure_sorted();
  if (sorted_.size() == 1) return sorted_[0];
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1 - frac) + sorted_[lo + 1] * frac;
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
  ensure(row.size() == header_.size(), "Table row width mismatch");
  rows_.push_back(std::move(row));
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      os << row[c] << std::string(width[c] - row[c].size(), ' ');
    }
    os << " |\n";
  };
  emit(header_);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << (c == 0 ? "|-" : "-|-") << std::string(width[c], '-');
  }
  os << "-|\n";
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void Table::print() const { std::fputs(to_string().c_str(), stdout); }

namespace {

void append_json_string(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

std::string Table::to_json() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << (r == 0 ? "\n  {" : ",\n  {");
    for (std::size_t c = 0; c < header_.size(); ++c) {
      if (c > 0) os << ", ";
      append_json_string(os, header_[c]);
      os << ": ";
      append_json_string(os, rows_[r][c]);
    }
    os << '}';
  }
  os << "\n]";
  return os.str();
}

std::string Table::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

BenchArgs BenchArgs::parse(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      args.json = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json FILE]\n", argv[0]);
      std::exit(2);
    }
  }
  return args;
}

bool write_json_tables(
    const std::string& path,
    const std::vector<std::pair<std::string, const Table*>>& sections) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  // CMakeLists.txt defines RVAAS_COMPILER and RVAAS_BUILD_TYPE for this
  // file at configure time; RVAAS_GIT_SHA comes from the generated header.
  Table host({"nproc", "compiler", "build-type", "git-sha"});
  host.add_row({std::to_string(std::thread::hardware_concurrency()),
                RVAAS_COMPILER, RVAAS_BUILD_TYPE, RVAAS_GIT_SHA});
  std::vector<std::pair<std::string, const Table*>> all{{"host", &host}};
  all.insert(all.end(), sections.begin(), sections.end());
  std::fputs("{\n", f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::fprintf(f, "\"%s\": %s%s\n", all[i].first.c_str(),
                 all[i].second->to_json().c_str(),
                 i + 1 < all.size() ? "," : "");
  }
  std::fputs("}\n", f);
  // A short write (e.g. disk full) must not masquerade as success — the
  // whole point of the file is a trustworthy CI artifact.
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace rvaas::util
