#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "tensor/kernels/kernels.h"

namespace perfbench {
namespace {

// Ids of the spans open on this thread, innermost last.
thread_local std::vector<int64_t> open_spans;

}  // namespace

int64_t NowNanos() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

int64_t Tracer::Begin(const char* name, int64_t request, int64_t rows) {
  if (!enabled_) return -1;
  pristi::tensor::kernels::KernelStats stats =
      pristi::tensor::kernels::GetKernelStats();
  Span span;
  span.name = name;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.request = request;
  span.rows = rows;
  span.gemm_calls = stats.gemm_calls;
  span.flops = stats.flops;
  span.start_ns = NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int64_t>(spans_.size());
  spans_.push_back(span);
  open_spans.push_back(span.id);
  return span.id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  int64_t end = NowNanos();
  pristi::tensor::kernels::KernelStats stats =
      pristi::tensor::kernels::GetKernelStats();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = end;
  span.gemm_calls = stats.gemm_calls - span.gemm_calls;
  span.flops = stats.flops - span.flops;
}

void Tracer::Record(const char* name, int64_t request, int64_t start_ns,
                    int64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int64_t>(spans_.size());
  spans_.push_back(span);
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> closed;
  for (const Span& span : spans_) {
    if (span.end_ns >= 0) closed.push_back(span);
  }
  return closed;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::vector<Span> spans = Spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"id\": %lld, \"name\": \"%s\", \"parent\": %lld, "
                 "\"request\": %lld, \"rows\": %lld, \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"gemm_calls\": %llu, \"flops\": %llu}%s\n",
                 static_cast<long long>(s.id), s.name,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.rows),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.gemm_calls),
                 static_cast<unsigned long long>(s.flops),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double Tracer::CalibrateNanosPerSpan() {
  constexpr int kPairs = 20000;
  Tracer scratch;
  scratch.set_enabled(true);
  int64_t start = NowNanos();
  for (int i = 0; i < kPairs; ++i) scratch.End(scratch.Begin("calibrate"));
  return static_cast<double>(NowNanos() - start) / kPairs;
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

std::vector<int64_t> SelfNanos(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    auto parent = index.find(s.parent);
    if (parent != index.end()) {
      children[parent->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to s.
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, reach);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += end - begin;
        reach = end;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench
