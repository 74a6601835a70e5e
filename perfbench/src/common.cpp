#include "common.hpp"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

std::string Report::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    if (i > 0) out += ", ";
    out += json_string(order_[i]) + ": {\"value\": " + json_number(value) +
           ", \"unit\": " + json_string(unit) + "}";
  }
  return out + "}";
}

void RunResult::fail(const std::string& what) {
  ++failed;
  if (errors.size() < 20) errors.push_back(what);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_number(values[i]);
  }
  return out + "]";
}

namespace {
double maxrss_mb(int who) {
  rusage usage{};
  if (::getrusage(who, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}
}  // namespace

double peak_rss_mb_self() { return maxrss_mb(RUSAGE_SELF); }
double peak_rss_mb_children() { return maxrss_mb(RUSAGE_CHILDREN); }

std::string Effort::to_json() const {
  std::ostringstream out;
  out << "{\"nodes\": " << nodes << ", \"pivots\": " << pivots
      << ", \"refactorizations\": " << refactorizations
      << ", \"cover_cuts\": " << cover_cuts
      << ", \"clique_cuts\": " << clique_cuts << ", \"rc_fixed\": " << rc_fixed
      << ", \"retries\": " << retries << "}";
  return out.str();
}

std::vector<std::string> check_effort_ledger(
    const std::string& path, const std::string& build_id,
    const std::map<std::string, Effort>& counts) {
  std::vector<std::string> differing;
  // The first record of an id is kept: every later run is compared to it.
  std::map<std::string, Effort> stored;
  std::ifstream in(path);
  std::string header;
  if (in && std::getline(in, header) && header == "build " + build_id) {
    std::string id;
    Effort e;
    while (in >> id >> e.nodes >> e.pivots >> e.refactorizations >>
           e.cover_cuts >> e.clique_cuts >> e.rc_fixed >> e.retries) {
      stored[id] = e;
    }
  }
  in.close();
  for (const auto& [key, effort] : counts) {
    const auto [it, inserted] = stored.emplace(key, effort);
    if (!inserted && !(it->second == effort)) differing.push_back(key);
  }
  std::ofstream out(path);
  out << "build " << build_id << "\n";
  for (const auto& [key, e] : stored) {
    out << key << ' ' << e.nodes << ' ' << e.pivots << ' '
        << e.refactorizations << ' ' << e.cover_cuts << ' ' << e.clique_cuts
        << ' ' << e.rc_fixed << ' ' << e.retries << "\n";
  }
  return differing;
}

std::string build_id(const char* argv0) {
  struct stat info {};
  if (::stat(argv0, &info) != 0) return "unknown";
  return std::to_string(static_cast<long long>(info.st_size)) + "-" +
         std::to_string(static_cast<long long>(info.st_mtime));
}

}  // namespace perfbench
