// In-memory span recorder for the traced run. A span is a name, an integer
// attribute (route, query index or update kind), a start, an end and the
// span open around it. Spans are kept in memory and written out once, at
// the end of the run. Single-threaded: only the benchmark's main thread
// records spans.
#ifndef WDRBENCH_TRACE_H_
#define WDRBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wdrbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    int attr;
    int64_t start_ns, end_ns;
    int parent;  // index into spans(), -1 for a root
    double seconds() const { return (end_ns - start_ns) * 1e-9; }
  };

  // Recording is switched on and off between rounds, so one traced run
  // also measures its own untraced rounds (the tracing overhead).
  void set_on(bool on) { on_ = on; }
  bool on() const { return on_; }

  class Scope {
   public:
    Scope(Tracer& t, const char* name, int attr) : t_(t), id_(-1) {
      if (!t_.on_) return;
      id_ = static_cast<int>(t_.spans_.size());
      t_.spans_.push_back({name, attr, Now(), 0, t_.open_});
      t_.open_ = id_;
    }
    ~Scope() {
      if (id_ < 0) return;
      t_.spans_[id_].end_ns = Now();
      t_.open_ = t_.spans_[id_].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  // A span's duration minus the time its direct children cover (children
  // of one single-threaded span never overlap).
  std::vector<double> SelfSeconds() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].seconds();
    for (const auto& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.seconds();
    }
    return self;
  }

  // Samples of a count taken at a layer boundary (rows, scans, probes).
  void Count(const std::string& name, double value) {
    if (on_) counts_[name].push_back(value);
  }
  const std::vector<double>& counts(const std::string& name) const {
    static const std::vector<double> kNone;
    auto it = counts_.find(name);
    return it == counts_.end() ? kNone : it->second;
  }

  // One JSON object per span: {"name","attr","start_ns","end_ns","parent"}.
  std::string ToJsonLines() const {
    std::string out;
    for (const auto& s : spans_) {
      out += "{\"name\":\"" + std::string(s.name) +
             "\",\"attr\":" + std::to_string(s.attr) +
             ",\"start_ns\":" + std::to_string(s.start_ns) +
             ",\"end_ns\":" + std::to_string(s.end_ns) +
             ",\"parent\":" + std::to_string(s.parent) + "}\n";
    }
    return out;
  }

  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool on_ = false;
  int open_ = -1;
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> counts_;
};

}  // namespace wdrbench

#endif  // WDRBENCH_TRACE_H_
