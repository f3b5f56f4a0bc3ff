#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the benchmark's traced runs. Spans are taken
// only from benchmark code, around calls into the library's public
// functions; the library itself is not instrumented. A span holds a name,
// start and end (nanoseconds since process start), the span that was open
// on the same thread when it began (its parent), a request id, a row count
// and the GEMM counters read at its two boundaries.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Nanoseconds on the steady clock since the first call in this process.
int64_t NowNanos();

struct Span {
  const char* name = "";  // static storage
  int64_t id = 0;
  int64_t parent = -1;   // -1: no enclosing span on the recording thread
  int64_t request = -1;  // request / window id, -1 when not per request
  int64_t rows = 0;      // batch rows of a model call, 0 otherwise
  int64_t start_ns = 0;
  int64_t end_ns = -1;   // -1 while open
  uint64_t gemm_calls = 0;  // delta of KernelStats::gemm_calls
  uint64_t flops = 0;       // delta of KernelStats::flops
};

class Tracer {
 public:
  // Opens a span on the calling thread and returns its id, or -1 when the
  // tracer is disabled.
  int64_t Begin(const char* name, int64_t request = -1, int64_t rows = 0);
  void End(int64_t id);
  // Records a span that began and ended on another thread, or whose end
  // was learned after the fact (a serve request's response time). It has
  // no parent and no counter deltas.
  void Record(const char* name, int64_t request, int64_t start_ns,
              int64_t end_ns);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Closed spans, in id order.
  std::vector<Span> Spans() const;

  // Writes every span as one JSON object; returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

  // Cost of one Begin/End pair in nanoseconds, measured on a private
  // tracer so the recorded spans are untouched.
  static double CalibrateNanosPerSpan();

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

// The process-wide tracer every benchmark span goes to.
Tracer& GlobalTracer();

// RAII span on the global tracer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t request = -1,
                      int64_t rows = 0)
      : id_(GlobalTracer().Begin(name, request, rows)) {}
  ~ScopedSpan() { GlobalTracer().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_;
};

// A span's duration minus the part of it covered by its children.
// `spans` must be the complete closed-span list (children included).
std::vector<int64_t> SelfNanos(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
