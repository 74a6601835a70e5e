#include "trace.hpp"

#include <fstream>

namespace perfbench {

int Tracer::open(const char* name, std::int64_t item, bool replay) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.item = item;
  span.replay = replay;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  spans_.back().start = Clock::now();
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int Tracer::add(const char* name, Clock::time_point start,
                Clock::time_point end, std::int64_t item, bool replay,
                int parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.item = item;
  span.replay = replay;
  span.parent = parent;
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] +=
          ms_between(span.start, span.end);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] +=
        ms_between(spans_[i].start, spans_[i].end) - child_ms[i];
  }
  return out;
}

std::map<std::string, std::int64_t> Tracer::counts() const {
  std::map<std::string, std::int64_t> out;
  for (const Span& span : spans_) ++out[span.name];
  return out;
}

bool Tracer::write(const std::string& path) const {
  if (spans_.empty()) return true;
  std::ofstream out(path);
  if (!out) return false;
  Clock::time_point origin = spans_.front().start;
  for (const Span& span : spans_) origin = std::min(origin, span.start);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": " << json_string(s.name)
        << ", \"start_ms\": " << json_number(ms_between(origin, s.start))
        << ", \"end_ms\": " << json_number(ms_between(origin, s.end))
        << ", \"parent\": " << s.parent << ", \"item\": " << s.item
        << ", \"replay\": " << (s.replay ? "true" : "false") << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
