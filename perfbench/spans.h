#ifndef GRAPHAUG_PERFBENCH_SPANS_H_
#define GRAPHAUG_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace graphaug::perfbench {

/// One timed interval around a call into a library layer.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = -1;  ///< -1 while open
  int parent = -1;      ///< index of the enclosing span, -1 at top level
  int step = 0;         ///< traced iteration the span belongs to
};

/// In-memory span recorder for the traced run. Spans are opened and closed
/// on the driver thread only (library calls parallelize internally but are
/// timed from outside), so nesting follows a simple stack. Nothing is
/// written until WriteJsonLines, at the end of the run.
class SpanRecorder {
 public:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void set_step(int step) { step_ = step; }

  int Begin(const std::string& name) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.step = step_;
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    spans_.back().start_ns = NowNs();
    return open_.back();
  }

  void End(int id) {
    const int64_t now = NowNs();
    spans_[static_cast<size_t>(id)].end_ns = now;
    while (!open_.empty()) {
      const int top = open_.back();
      open_.pop_back();
      if (top == id) break;
    }
  }

  /// Times `fn` as a span named `name` and returns its duration in ns.
  template <typename Fn>
  int64_t Time(const std::string& name, Fn&& fn) {
    const int id = Begin(name);
    fn();
    End(id);
    return Duration(spans_[static_cast<size_t>(id)]);
  }

  static int64_t Duration(const Span& s) { return s.end_ns - s.start_ns; }

  /// Self time of every span: its duration minus the durations of its
  /// direct children (children never overlap on one thread).
  std::vector<int64_t> SelfTimes() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) self[i] = Duration(spans_[i]);
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= Duration(s);
    }
    return self;
  }

  /// Self times in ms grouped by span name, in recording order per name.
  std::map<std::string, std::vector<double>> SelfMsByName() const {
    const std::vector<int64_t> self = SelfTimes();
    std::map<std::string, std::vector<double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name].push_back(static_cast<double>(self[i]) * 1e-6);
    }
    return out;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: name, start/end (ns, steady clock),
  /// parent index and step id. Returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d, \"step\": %d}\n",
                   i, s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent, s.step);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int step_ = 0;
};

}  // namespace graphaug::perfbench

#endif  // GRAPHAUG_PERFBENCH_SPANS_H_
