// In-memory span recorder of the traced run.
//
// The benchmark records a span around each public call it makes into a
// layer (name, start, end, parent, item id).  Spans stay in memory and
// are written as jsonl when the run ends.  A layer's self time is its
// span minus the part its child spans cover.  A disabled tracer records
// nothing, so untraced runs pay one branch per call site.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  const char* name = "";
  Clock::time_point start{};
  Clock::time_point end{};
  int parent = -1;          // index into the span list, -1 = root
  std::int64_t item = -1;   // instance or request id
  bool replay = false;      // stage replayed in process, not the live path
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; -1 when disabled.
  int open(const char* name, std::int64_t item, bool replay = false);
  void close(int index);
  /// Records an already finished span (timed elsewhere, e.g. by a socket
  /// reader thread); nested under `parent` when given.
  int add(const char* name, Clock::time_point start, Clock::time_point end,
          std::int64_t item, bool replay = false, int parent = -1);

  /// Self time in ms per span name, summed over all spans of that name.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Number of spans per name.
  [[nodiscard]] std::map<std::string, std::int64_t> counts() const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Writes one JSON object per span (times in ms from the first span).
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int64_t item,
        bool replay = false)
      : tracer_(tracer), index_(tracer.open(name, item, replay)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
