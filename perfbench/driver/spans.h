// In-memory span recorder for the traced run. Spans are opened and closed
// from the benchmark's own code around calls into the library's public
// functions; nothing inside src/ is instrumented. Each span records a name,
// start, end, parent span and op id; the file is written once, at exit.
#ifndef PERFBENCH_DRIVER_SPANS_H_
#define PERFBENCH_DRIVER_SPANS_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    spans_.reserve(enabled ? 1 << 16 : 0);
  }

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one. `name` must be a string
  /// literal (it is stored by pointer). Returns -1 when tracing is off.
  int Begin(const char* name, long long op) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, NowUs(), 0.0, stack_.empty() ? -1 : stack_.back(),
                      op});
    stack_.push_back(id);
    return id;
  }

  /// Closes span `id` (must be the innermost open span) and returns its
  /// duration in microseconds; 0 when tracing is off.
  double End(int id) {
    if (id < 0) return 0.0;
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_us = NowUs();
    stack_.pop_back();
    return s.end_us - s.start_us;
  }

  size_t size() const { return spans_.size(); }

  /// Total duration in microseconds of the spans named `name` recorded at
  /// index `from` or later.
  double SumSince(size_t from, const std::string& name) const {
    double us = 0.0;
    for (size_t i = from; i < spans_.size(); ++i) {
      if (name == spans_[i].name) us += spans_[i].end_us - spans_[i].start_us;
    }
    return us;
  }

  /// Writes one JSON object per line: name, start_us, end_us, parent, op.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                   "\"end_us\":%.3f,\"parent\":%d,\"op\":%lld}\n",
                   i, s.name, s.start_us, s.end_us, s.parent, s.op);
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
    long long op;
  };

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: Begin on construction, End on destruction or on Close().
class Span {
 public:
  Span(Tracer* tracer, const char* name, long long op)
      : tracer_(tracer), id_(tracer->Begin(name, op)) {}
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double Close() {
    const double us = tracer_->End(id_);
    id_ = -1;
    return us;
  }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SPANS_H_
