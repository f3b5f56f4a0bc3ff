#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "data/dataset.h"
#include "data/windows.h"
#include "diffusion/ddpm.h"
#include "diffusion/schedule.h"
#include "metrics/metrics.h"
#include "pristi/pristi_model.h"
#include "serialize/checkpoint.h"
#include "serve/session.h"
#include "tensor/kernels/kernels.h"
#include "tensor/storage.h"
#include "trace.h"

namespace perfbench {

using pristi::Rng;
using pristi::tensor::Tensor;
namespace core = pristi::core;
namespace data = pristi::data;
namespace diffusion = pristi::diffusion;
namespace serve = pristi::serve;

namespace {

// ---- Shapes shared by the workloads ----------------------------------------
// One window length for every workload: at L = 12 a PEMS-BAY-sized (N = 325)
// window with S = 8 samples takes seconds, so a run of a few tens of seconds
// still completes whole coalesced groups (see README.md, "Sizing").
constexpr int64_t kWindow = 12;
constexpr int64_t kSamples = 8;      // S >= 8: CRPS over one sample is MAE
// setup_s is the median over this many complete set-ups (the first one
// also pays process-level lazy initialization).
constexpr int kSetupRounds = 5;
constexpr int64_t kScheduleSteps = 30;  // pristi_cli's default schedule

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"windows_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"error", "norm"},
    {"peak_live_mb", "MB"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.batch_ms_mean", "ms"},
    {"serve.failed", "count"},
    {"serve.gen_late_ms_max", "ms"},
    {"diffusion.model_calls_per_window", "count"},
    {"diffusion.rows_per_call", "count"},
    {"diffusion.sampler_self_ms", "ms"},
    {"diffusion.train_forward_ms", "ms"},
    {"diffusion.train_backward_update_ms", "ms"},
    {"pristi.predict_ms_per_row", "ms"},
    {"kernels.gemm_calls", "count"},
    {"kernels.gflop", "GFLOP"},
    {"kernels.gflops_per_s", "GFLOP/s"},
    {"kernels.pack_cache_hit_rate", "ratio"},
    {"kernels.fused_attn_rows", "count"},
    {"kernels.fused_attn_mb_avoided", "MB"},
    {"storage.alloc_requests", "count"},
    {"storage.pool_hit_rate", "ratio"},
    {"storage.heap_allocs", "count"},
    {"process.cpu_per_wall", "ratio"},
    {"serialize.load_ms", "ms"},
    {"data.prepare_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// Human-readable report lines; the JSON result is always the last line.
void Note(const std::string& line) {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

double Millis(int64_t nanos) { return static_cast<double>(nanos) * 1e-6; }
double Secs(int64_t nanos) { return static_cast<double>(nanos) * 1e-9; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

// Samples lying beyond the nearest-rank p-th percentile of n samples.
int64_t BeyondPercentile(size_t n, double p) {
  return static_cast<int64_t>(n) -
         static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
}

// Prints the sample count, the median and every higher percentile of
// p75/p90/p99 that has at least ten samples beyond it, then every value in
// the order measured (so a host slowdown inside the run is visible).
void NotePercentiles(const std::string& name, const std::vector<double>& ms) {
  std::string line = Format("%s: n=%zu", name.c_str(), ms.size());
  for (double p : {50.0, 75.0, 90.0, 99.0}) {
    if (ms.empty() || BeyondPercentile(ms.size(), p) < 10) break;
    line += Format(" p%g=%.2f ms", p, Percentile(ms, p));
  }
  Note(line);
  line = name + " in order:";
  for (double v : ms) line += Format(" %.1f", v);
  Note(line);
}

// Process-wide counters read at a phase boundary.
struct Snapshot {
  pristi::tensor::kernels::KernelStats kernels;
  pristi::tensor::AllocStats alloc;
  double cpu_s = 0;
  int64_t wall_ns = 0;

  static Snapshot Take() {
    Snapshot s;
    s.kernels = pristi::tensor::kernels::GetKernelStats();
    s.alloc = pristi::tensor::GetAllocStats();
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    s.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                         usage.ru_stime.tv_usec);
    s.wall_ns = NowNanos();
    return s;
  }
};

diffusion::NoiseSchedule Schedule() {
  return diffusion::NoiseSchedule::Quadratic(kScheduleSteps, 1e-4f, 0.2f);
}

// pristi_cli's default model for a task (including its CSR message-passing
// switch at >= 256 nodes).
core::PristiConfig ModelConfig(const data::ImputationTask& task) {
  core::PristiConfig config;
  config.num_nodes = task.dataset.num_nodes;
  config.window_len = task.window_len;
  config.channels = 16;
  config.heads = 4;
  config.layers = 2;
  config.virtual_nodes = std::min<int64_t>(8, task.dataset.num_nodes / 2);
  config.diffusion_emb_dim = 32;
  config.temporal_emb_dim = 32;
  config.node_emb_dim = 16;
  config.adaptive_rank = 6;
  config.use_sparse_mpnn = task.dataset.num_nodes >= 256;
  return config;
}

// The deployment -- sensor graph, series and initial weights -- is the same
// on every run; the workload seed picks which entries are withheld, the
// sampling seeds, training shuffles and arrival times. With a per-seed
// deployment the work per window would itself change with the seed (the
// CSR graph's nnz, the weights), and the untrained N = 325 model's CRPS
// spread by a quarter across seeds.
constexpr uint64_t kDeploymentSeed = 2023;

data::ImputationTask MakeTask(const data::SyntheticConfig& config,
                              Rng& deployment, Rng& rng) {
  data::TaskOptions options;
  options.window_len = kWindow;
  return data::MakeTask(data::GenerateSynthetic(config, deployment),
                        data::MissingPattern::kPoint, options, rng);
}

// Times every PredictNoise call as a span and forwards to the model. Used
// only on traced runs; untraced runs hand the model to the library as is.
class TracedPredictor : public diffusion::ConditionalNoisePredictor {
 public:
  explicit TracedPredictor(std::shared_ptr<core::PristiModel> model)
      : model_(std::move(model)) {}

  pristi::autograd::Variable PredictNoise(
      const Tensor& noisy, const diffusion::DiffusionBatch& batch,
      int64_t t) override {
    ScopedSpan span("pristi.predict_noise", -1, noisy.dim(0));
    return model_->PredictNoise(noisy, batch, t);
  }
  std::vector<pristi::autograd::Variable> Parameters() override {
    return model_->Parameters();
  }
  void ZeroGrad() override { model_->ZeroGrad(); }

 private:
  std::shared_ptr<core::PristiModel> model_;
};

std::shared_ptr<diffusion::ConditionalNoisePredictor> Predictor(
    const std::shared_ptr<core::PristiModel>& model) {
  if (!GlobalTracer().enabled()) return model;
  return std::make_shared<TracedPredictor>(model);
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool SameResult(const diffusion::ImputationResult& a,
                const diffusion::ImputationResult& b) {
  if (a.samples.size() != b.samples.size()) return false;
  for (size_t i = 0; i < a.samples.size(); ++i) {
    if (!BitwiseEqual(a.samples[i], b.samples[i])) return false;
  }
  return BitwiseEqual(a.median, b.median);
}

// Every imputed value is finite and every observed entry is copied through
// bitwise, in every sample and in the median.
void CheckImputation(const data::Sample& window,
                     const diffusion::ImputationResult& result,
                     const std::string& what, Report* report) {
  if (static_cast<int64_t>(result.samples.size()) != kSamples) {
    report->Fail(Format("%s: %zu samples, expected %lld", what.c_str(),
                        result.samples.size(),
                        static_cast<long long>(kSamples)));
    return;
  }
  std::vector<const Tensor*> outputs = {&result.median};
  for (const Tensor& sample : result.samples) outputs.push_back(&sample);
  for (const Tensor* out : outputs) {
    if (out->numel() != window.values.numel()) {
      report->Fail(what + ": output shape differs from the window");
      return;
    }
    for (int64_t i = 0; i < out->numel(); ++i) {
      float v = out->data()[i];
      if (!std::isfinite(v)) {
        report->Fail(Format("%s: non-finite value at entry %lld",
                            what.c_str(), static_cast<long long>(i)));
        return;
      }
      float truth = window.values.data()[i];
      if (window.observed.data()[i] > 0.5f &&
          std::memcmp(&v, &truth, sizeof(float)) != 0) {
        report->Fail(Format("%s: observed entry %lld not copied through",
                            what.c_str(), static_cast<long long>(i)));
        return;
      }
    }
  }
}

// MAE of the sample median and CRPS of the samples over withheld entries,
// in normalized units.
class Quality {
 public:
  void Add(const data::Sample& window,
           const diffusion::ImputationResult& result) {
    for (int64_t i = 0; i < window.eval.numel(); ++i) {
      if (window.eval.data()[i] > 0.5f) {
        abs_error_ += std::fabs(result.median.data()[i] -
                                window.values.data()[i]);
        ++entries_;
      }
    }
    crps_.Add(result.samples, window.values, window.eval);
  }
  int64_t entries() const { return entries_; }
  double Mae() const {
    return entries_ > 0 ? abs_error_ / static_cast<double>(entries_) : 0;
  }
  double Crps() const { return crps_.Crps(); }

 private:
  double abs_error_ = 0;
  int64_t entries_ = 0;
  pristi::metrics::CrpsAccumulator crps_;
};

void SetQuality(const Quality& quality, const char* prefix, Report* report) {
  if (quality.entries() == 0) {
    report->Fail(std::string(prefix) + ": no withheld entries to score");
    return;
  }
  Note(Format("%s.mae=%.6f %s.crps=%.6f over %lld withheld entries (S=%lld)",
              prefix, quality.Mae(), prefix, quality.Crps(),
              static_cast<long long>(quality.entries()),
              static_cast<long long>(kSamples)));
  if (quality.Crps() == quality.Mae()) {
    report->Fail(std::string(prefix) + ": CRPS equals MAE (degenerate)");
  }
  report->end_to_end.Set("error", quality.Crps());
}

void SetSetup(const std::vector<double>& rounds, Report* report) {
  std::string line = "setup rounds (s):";
  for (double s : rounds) line += Format(" %.3f", s);
  Note(line);
  report->end_to_end.Set("setup_s", Median(rounds));
}

void SetPeak(Report* report) {
  report->end_to_end.Set(
      "peak_live_mb",
      static_cast<double>(pristi::tensor::GetAllocStats().peak_live_bytes) /
          1e6);
}

// ---- Per-layer metrics from the trace ---------------------------------------

std::vector<Span> SpansIn(const std::vector<Span>& spans, int64_t from_ns,
                          int64_t to_ns) {
  std::vector<Span> out;
  for (const Span& s : spans) {
    if (s.start_ns >= from_ns && s.end_ns <= to_ns) out.push_back(s);
  }
  return out;
}

std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(Millis(s.end_ns - s.start_ns));
    }
  }
  return out;
}

// Set-up layers (median over the set-up rounds), inference-forward cost,
// kernel, storage and process counters over the timed phase, divided by
// `units` (windows, requests or optimizer steps), and the tracer's own cost.
void SetCommonLayers(const std::vector<Span>& all, const Snapshot& before,
                     const Snapshot& after, double units, bool inference,
                     Report* report) {
  MetricTable& m = report->per_layer;
  m.Set("data.prepare_ms", Median(DurationsMs(all, "data.prepare")));
  m.Set("serialize.load_ms", Median(DurationsMs(all, "serialize.load")));

  std::vector<Span> timed = SpansIn(all, before.wall_ns, after.wall_ns);
  if (inference) {
    double predict_ms = 0, rows = 0;
    for (const Span& s : timed) {
      if (std::strcmp(s.name, "pristi.predict_noise") == 0) {
        predict_ms += Millis(s.end_ns - s.start_ns);
        rows += static_cast<double>(s.rows);
      }
    }
    if (rows > 0) m.Set("pristi.predict_ms_per_row", predict_ms / rows);
  }

  double wall_s = Secs(after.wall_ns - before.wall_ns);
  const auto& k0 = before.kernels;
  const auto& k1 = after.kernels;
  double flops = static_cast<double>(k1.flops - k0.flops);
  m.Set("kernels.gemm_calls",
        static_cast<double>(k1.gemm_calls - k0.gemm_calls) / units);
  m.Set("kernels.gflop", flops * 1e-9 / units);
  m.Set("kernels.gflops_per_s", flops * 1e-9 / wall_s);
  double hits = static_cast<double>(k1.pack_cache_hits - k0.pack_cache_hits);
  double lookups =
      hits + static_cast<double>(k1.pack_cache_misses - k0.pack_cache_misses);
  m.Set("kernels.pack_cache_hit_rate", lookups > 0 ? hits / lookups : 0);
  m.Set("kernels.fused_attn_rows",
        static_cast<double>(k1.fused_attn_rows - k0.fused_attn_rows) / units);
  m.Set("kernels.fused_attn_mb_avoided",
        static_cast<double>(k1.fused_attn_bytes_avoided -
                            k0.fused_attn_bytes_avoided) /
            1e6 / units);

  const auto& a0 = before.alloc;
  const auto& a1 = after.alloc;
  double requests = static_cast<double>(a1.requests - a0.requests);
  m.Set("storage.alloc_requests", requests / units);
  m.Set("storage.pool_hit_rate",
        requests > 0 ? static_cast<double>(a1.pool_hits - a0.pool_hits) /
                           requests
                     : 0);
  m.Set("storage.heap_allocs",
        static_cast<double>(a1.heap_allocs - a0.heap_allocs) / units);
  m.Set("process.cpu_per_wall", (after.cpu_s - before.cpu_s) / wall_s);

  double per_span_ns = Tracer::CalibrateNanosPerSpan();
  m.Set("trace.spans", static_cast<double>(timed.size()));
  m.Set("trace.overhead_pct",
        100.0 * per_span_ns * static_cast<double>(timed.size()) /
            static_cast<double>(after.wall_ns - before.wall_ns));
}

std::vector<data::Sample> Group(const std::vector<data::Sample>& windows,
                                int64_t group, int64_t size) {
  std::vector<data::Sample> out;
  for (int64_t r = 0; r < size; ++r) {
    out.push_back(windows[static_cast<size_t>(group * size + r) %
                          windows.size()]);
  }
  return out;
}

// Per-request determinism keys: distinct for every request of a run, and a
// function of the workload seed only.
uint64_t RequestSeed(uint64_t workload_seed, int64_t index) {
  return workload_seed * 1000003ULL + static_cast<uint64_t>(index);
}

}  // namespace

// ---- MetricTable / Report ----------------------------------------------------

MetricTable::MetricTable(
    const std::vector<std::pair<std::string, std::string>>& names_and_units) {
  for (const auto& [name, unit] : names_and_units) {
    order_.push_back(name);
    metrics_[name] = Metric{0, unit, false};
  }
}

void MetricTable::Set(const std::string& name, double value) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    throw std::logic_error("unknown metric " + name);
  }
  it->second.value = value;
  it->second.set = true;
}

std::vector<std::string> MetricTable::Unset() const {
  std::vector<std::string> out;
  for (const std::string& name : order_) {
    if (!metrics_.at(name).set) out.push_back(name);
  }
  return out;
}

Report::Report() : end_to_end(kEndToEnd), per_layer(kPerLayer) {
  for (const std::string& name : per_layer.order()) per_layer.Set(name, 0);
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  check_failures.push_back(what);
}

// ---- impute-n325 ---------------------------------------------------------------
// Offline imputation at PEMS-BAY's node count: coalesced groups of
// kGroup windows x S samples through ImputeWindowsCoalesced, DDIM at a
// fixed kept-step count, seeded (untrained) weights.

Report RunImputeN325(const RunOptions& options) {
  constexpr int64_t kNodes = 325;
  constexpr int64_t kSteps = 240;  // 4 test windows of L = 12
  constexpr int64_t kGroup = 2;
  constexpr int64_t kKeptSteps = 5;
  constexpr int64_t kMinGroups = 2;      // quality is scored on these
  Report report;
  const diffusion::NoiseSchedule schedule = Schedule();
  diffusion::ImputeOptions impute;
  impute.num_samples = kSamples;
  impute.sampler = diffusion::SamplerKind::kDdim;
  impute.num_inference_steps = kKeptSteps;
  auto seeds = [&](int64_t group) {
    std::vector<uint64_t> out;
    for (int64_t r = 0; r < kGroup; ++r) {
      out.push_back(RequestSeed(options.seed, group * kGroup + r));
    }
    return out;
  };

  std::vector<double> setup_rounds;
  std::vector<data::Sample> windows;
  std::shared_ptr<core::PristiModel> model;
  std::shared_ptr<diffusion::ConditionalNoisePredictor> predictor;
  for (int round = 0; round < kSetupRounds; ++round) {
    int64_t start = NowNanos();
    Rng deployment(kDeploymentSeed);
    Rng rng(options.seed);
    std::unique_ptr<data::ImputationTask> task;
    {
      ScopedSpan span("data.prepare");
      task = std::make_unique<data::ImputationTask>(
          MakeTask(data::PemsBayLikeConfig(kNodes, kSteps), deployment, rng));
      windows = data::ExtractSamples(*task, "test");
    }
    model = std::make_shared<core::PristiModel>(
        ModelConfig(*task), task->dataset.graph.adjacency, deployment);
    predictor = Predictor(model);
    // Warm-up: one model call at the timed batch shape, through the same
    // entry point, fills the pack cache and the buffer pool.
    diffusion::ImputeOptions warm = impute;
    warm.num_inference_steps = 1;
    {
      ScopedSpan span("setup.warmup");
      diffusion::ImputeWindowsCoalesced(predictor.get(), schedule,
                                        Group(windows, 0, kGroup), seeds(0),
                                        warm);
    }
    setup_rounds.push_back(Secs(NowNanos() - start));
  }
  SetSetup(setup_rounds, &report);

  // Timed phase: whole groups until `seconds` have passed (at least
  // kMinGroups). Each group's outputs are checked, outside its timing, and
  // released before the next group, so their buffers recycle through the
  // pool like a caller's would and the per-window storage counts do not
  // depend on how many groups fit in the phase.
  std::vector<double> group_ms;
  Quality quality;
  Snapshot before = Snapshot::Take();
  int64_t deadline =
      before.wall_ns + static_cast<int64_t>(options.seconds * 1e9);
  int64_t groups = 0;
  for (; groups < kMinGroups || NowNanos() < deadline; ++groups) {
    std::vector<data::Sample> group = Group(windows, groups, kGroup);
    std::vector<diffusion::ImputationResult> results;
    int64_t start = NowNanos();
    {
      ScopedSpan span("diffusion.impute_coalesced", groups, kGroup);
      results = diffusion::ImputeWindowsCoalesced(
          predictor.get(), schedule, group, seeds(groups), impute);
    }
    group_ms.push_back(Millis(NowNanos() - start));
    for (size_t r = 0; r < group.size(); ++r) {
      CheckImputation(group[r], results[r],
                      Format("group %lld window %zu",
                             static_cast<long long>(groups), r),
                      &report);
      if (groups < kMinGroups) quality.Add(group[r], results[r]);
    }
  }
  Snapshot after = Snapshot::Take();

  const int64_t windows_done = groups * kGroup;
  report.attempted = windows_done;
  double wall_s = Secs(after.wall_ns - before.wall_ns);
  Note(Format("impute: N=%lld L=%lld S=%lld ddim-%lld groups=%lld x R=%lld "
              "windows=%lld in %.3f s",
              static_cast<long long>(kNodes), static_cast<long long>(kWindow),
              static_cast<long long>(kSamples),
              static_cast<long long>(kKeptSteps),
              static_cast<long long>(groups), static_cast<long long>(kGroup),
              static_cast<long long>(windows_done), wall_s));
  // Both from the median group: a host slowdown that covers less than half
  // of the phase leaves them unchanged (see README.md, "Host noise").
  report.end_to_end.Set("windows_per_s",
                        static_cast<double>(kGroup) * 1e3 / Median(group_ms));
  report.end_to_end.Set("latency_p50_ms", Median(group_ms));
  NotePercentiles("impute.group_ms", group_ms);
  SetQuality(quality, "impute", &report);
  SetPeak(&report);

  if (GlobalTracer().enabled()) {
    std::vector<Span> all = GlobalTracer().Spans();
    std::vector<Span> timed = SpansIn(all, before.wall_ns, after.wall_ns);
    std::vector<int64_t> self = SelfNanos(timed);
    double calls = 0, rows = 0, sampler_self_ns = 0;
    std::vector<int64_t> impute_ids;
    for (size_t i = 0; i < timed.size(); ++i) {
      if (std::strcmp(timed[i].name, "diffusion.impute_coalesced") == 0) {
        sampler_self_ns += static_cast<double>(self[i]);
        impute_ids.push_back(timed[i].id);
      }
    }
    for (const Span& s : timed) {
      if (std::strcmp(s.name, "pristi.predict_noise") == 0 &&
          std::find(impute_ids.begin(), impute_ids.end(), s.parent) !=
              impute_ids.end()) {
        calls += 1;
        rows += static_cast<double>(s.rows);
      }
    }
    double units = static_cast<double>(windows_done);
    report.per_layer.Set("diffusion.model_calls_per_window", calls / units);
    report.per_layer.Set("diffusion.rows_per_call", calls > 0 ? rows / calls : 0);
    report.per_layer.Set("diffusion.sampler_self_ms",
                         sampler_self_ns * 1e-6 / units);
    SetCommonLayers(all, before, after, units, /*inference=*/true, &report);
  }
  return report;
}

// ---- serve-n36 -----------------------------------------------------------------
// ServeSession at AQI-36's node count with pristi_serve's default sampler.
// Phase A: open loop, seeded Poisson arrivals at a fixed rate well below
// capacity. Phase B: closed loop with kClients outstanding requests, to
// measure capacity. One load-generator thread drives both phases.

namespace {

struct Sent {
  int64_t id = 0;
  size_t window = 0;
  uint64_t seed = 0;
  int64_t scheduled_ns = 0;
  int64_t sent_ns = 0;
  std::future<serve::ImputeResponse> future;
};

struct Done {
  int64_t id = 0;
  size_t window = 0;
  uint64_t seed = 0;
  int64_t scheduled_ns = 0;
  int64_t sent_ns = 0;
  serve::ImputeResponse response;
  // Scheduled send -> response ready. A failed request never completes.
  double LatencyMs() const {
    return response.status.ok()
               ? Millis(sent_ns - scheduled_ns + response.total_nanos)
               : INFINITY;
  }
  int64_t ReadyNs() const { return sent_ns + response.total_nanos; }
};

Done Resolve(Sent sent) {
  Done done;
  done.id = sent.id;
  done.window = sent.window;
  done.seed = sent.seed;
  done.scheduled_ns = sent.scheduled_ns;
  done.sent_ns = sent.sent_ns;
  done.response = sent.future.get();
  if (done.response.status.ok()) {
    GlobalTracer().Record("serve.request", done.id, done.sent_ns,
                          done.ReadyNs());
  }
  return done;
}

constexpr int64_t kServeNodes = 36;
constexpr int64_t kServeSteps = 560;  // 32 training windows, 9 test windows

std::string ServeCheckpoint(const RunOptions& options) {
  return options.out_dir + "/serve-n36.ckpt";
}

}  // namespace

// Trains the weights serve-n36 loads (2 epochs) and saves them. It runs in
// a process of its own, before the measured one, so that the measured
// process's memory high-water mark covers only set-up and serving.
Report PrepareServeN36(const RunOptions& options) {
  constexpr int64_t kPrepEpochs = 2;
  Report report;
  Rng deployment(kDeploymentSeed);
  Rng rng(kDeploymentSeed);
  data::ImputationTask task = MakeTask(
      data::Aqi36LikeConfig(kServeNodes, kServeSteps), deployment, rng);
  core::PristiModel model(ModelConfig(task), task.dataset.graph.adjacency,
                          deployment);
  diffusion::TrainOptions train;
  train.epochs = kPrepEpochs;
  train.batch_size = 8;
  train.lr = 2e-3f;
  train.mask_strategy = data::MaskStrategy::kPoint;
  train.high_t_bias = 0.5;
  diffusion::TrainDiffusionModel(&model, Schedule(), task, train, rng);
  pristi::Status status =
      pristi::serialize::SaveModuleCheckpointFile(model, ServeCheckpoint(options));
  if (!status.ok()) report.Fail("checkpoint write: " + status.ToString());
  return report;
}

Report RunServeN36(const RunOptions& options) {
  // Phase A's rate is about a quarter of the closed-loop capacity measured
  // on a 4-CPU host (2.6-3.3 requests/s), so a host slowdown of 2x still
  // leaves the queue stable; at 1.25/s such a slowdown grew the queue and
  // the p50 by 10x.
  constexpr double kRatePerS = 0.7;
  constexpr double kOpenLoopShare = 0.6;  // of --seconds, for phase A
  constexpr int64_t kMinOpenLoop = 20;  // p50 needs >= 10 beyond it
  constexpr int64_t kQualityRequests = 8;
  constexpr int64_t kClients = 4;
  Report report;
  const diffusion::NoiseSchedule schedule = Schedule();
  serve::ServeConfig config;
  config.max_batch = 8;
  config.max_wait_nanos = 5'000'000;
  config.queue_capacity = 64;
  config.impute.num_samples = kSamples;
  config.impute.sampler = diffusion::SamplerKind::kDdim;
  config.impute.num_inference_steps = 10;
  const std::string checkpoint = ServeCheckpoint(options);

  std::vector<double> setup_rounds;
  std::vector<data::Sample> windows;
  std::shared_ptr<core::PristiModel> model;
  std::unique_ptr<serve::ServeSession> session;
  for (int round = 0; round < kSetupRounds; ++round) {
    int64_t start = NowNanos();
    session.reset();
    Rng deployment(kDeploymentSeed);
    Rng rng(options.seed);
    std::unique_ptr<data::ImputationTask> task;
    {
      ScopedSpan span("data.prepare");
      task = std::make_unique<data::ImputationTask>(
          MakeTask(data::Aqi36LikeConfig(kServeNodes, kServeSteps), deployment,
                   rng));
      windows = data::ExtractSamples(*task, "test");
    }
    model = std::make_shared<core::PristiModel>(
        ModelConfig(*task), task->dataset.graph.adjacency, deployment);
    pristi::Status status;
    {
      ScopedSpan span("serialize.load");
      status = pristi::serialize::LoadModuleCheckpointFile(*model, checkpoint);
    }
    if (!status.ok()) {
      report.Fail("checkpoint load: " + status.ToString());
      return report;
    }
    config.num_nodes = task->dataset.num_nodes;
    config.window_len = task->window_len;
    session = std::make_unique<serve::ServeSession>(
        serve::ModelSlot{Predictor(model), model.get()}, nullptr, schedule,
        config);
    serve::ImputeRequest warm;
    warm.window = windows[0];
    warm.seed = RequestSeed(options.seed, -1);
    serve::ImputeResponse response = session->Submit(warm).get();
    if (!response.status.ok()) {
      report.Fail("warm-up request: " + response.status.ToString());
      return report;
    }
    setup_rounds.push_back(Secs(NowNanos() - start));
  }
  SetSetup(setup_rounds, &report);

  int64_t next_id = 0;
  auto submit = [&](int64_t scheduled_ns) {
    Sent sent;
    sent.id = next_id++;
    sent.window = static_cast<size_t>(sent.id) % windows.size();
    sent.seed = RequestSeed(options.seed, sent.id);
    serve::ImputeRequest request;
    request.window = windows[sent.window];
    request.seed = sent.seed;
    sent.sent_ns = NowNanos();
    sent.scheduled_ns = scheduled_ns < 0 ? sent.sent_ns : scheduled_ns;
    sent.future = session->Submit(std::move(request));
    return sent;
  };

  // Phase A: open loop. Latency runs from each request's scheduled send
  // time, so a late generator or a stalled queue shows up in it.
  const int64_t open_loop = std::max<int64_t>(
      kMinOpenLoop,
      std::llround(kRatePerS * kOpenLoopShare * options.seconds));
  std::vector<int64_t> offsets;
  {
    Rng arrivals(options.seed ^ 0x5EEDA77A1ULL);
    double t = 0;
    for (int64_t i = 0; i < open_loop; ++i) {
      t += -std::log(1.0 - arrivals.Uniform()) / kRatePerS;
      offsets.push_back(static_cast<int64_t>(t * 1e9));
    }
  }
  Snapshot before = Snapshot::Take();
  std::vector<Sent> in_flight;
  double late_ms_max = 0;
  for (int64_t offset : offsets) {
    int64_t due = before.wall_ns + offset;
    int64_t wait = due - NowNanos();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    in_flight.push_back(submit(due));
    late_ms_max = std::max(
        late_ms_max,
        Millis(in_flight.back().sent_ns - in_flight.back().scheduled_ns));
  }
  std::vector<Done> phase_a;
  for (Sent& sent : in_flight) phase_a.push_back(Resolve(std::move(sent)));
  in_flight.clear();

  // Phase B: closed loop. Each of kClients sends its next request as soon
  // as its previous one resolves, until the phase deadline.
  const int64_t b_start = NowNanos();
  const int64_t b_deadline =
      b_start +
      static_cast<int64_t>((1.0 - kOpenLoopShare) * options.seconds * 1e9);
  for (int64_t c = 0; c < kClients; ++c) in_flight.push_back(submit(-1));
  std::vector<Done> phase_b;
  while (!in_flight.empty()) {
    in_flight.front().future.wait();
    std::vector<Sent> still;
    int64_t resolved = 0;
    for (Sent& sent : in_flight) {
      if (sent.future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        phase_b.push_back(Resolve(std::move(sent)));
        ++resolved;
      } else {
        still.push_back(std::move(sent));
      }
    }
    in_flight = std::move(still);
    for (int64_t i = 0; i < resolved && NowNanos() < b_deadline; ++i) {
      in_flight.push_back(submit(-1));
    }
  }
  Snapshot after = Snapshot::Take();
  session->Shutdown(serve::ServeSession::DrainMode::kDrain);
  serve::ServeSession::Stats stats = session->stats();

  // Counts, failures and latency.
  auto failed_in = [](const std::vector<Done>& phase) {
    int64_t failed = 0;
    for (const Done& d : phase) failed += d.response.status.ok() ? 0 : 1;
    return failed;
  };
  const int64_t failed_a = failed_in(phase_a);
  const int64_t failed_b = failed_in(phase_b);
  report.attempted = static_cast<int64_t>(phase_a.size() + phase_b.size());
  report.failed = failed_a + failed_b;
  Note(Format("serve.phase_a (open loop, %.2f/s Poisson): sent=%zu "
              "succeeded=%lld failed=%lld gen_late_max=%.3f ms",
              kRatePerS, phase_a.size(),
              static_cast<long long>(phase_a.size()) - failed_a,
              static_cast<long long>(failed_a), late_ms_max));
  // Capacity: requests completed before the deadline over the time from
  // the phase's start to the last of them. Requests resolve together per
  // batch, so ending the interval at a completion keeps a partly finished
  // batch from counting. If a slow host completes nothing before the
  // deadline, the requests outstanding at the deadline are counted instead.
  int64_t in_window = 0;
  int64_t last_ready = b_start;
  for (int64_t limit : {b_deadline, INT64_MAX}) {
    for (const Done& d : phase_b) {
      if (d.response.status.ok() && d.ReadyNs() <= limit) {
        ++in_window;
        last_ready = std::max(last_ready, d.ReadyNs());
      }
    }
    if (in_window > 0) break;
  }
  Note(Format("serve.phase_b (closed loop, %lld clients): sent=%zu "
              "succeeded=%lld failed=%lld counted_for_capacity=%lld",
              static_cast<long long>(kClients), phase_b.size(),
              static_cast<long long>(phase_b.size()) - failed_b,
              static_cast<long long>(failed_b),
              static_cast<long long>(in_window)));
  Note(Format("serve.session: admitted=%lld completed=%lld batches=%lld "
              "max_batch=%lld rejected_full=%lld rejected_invalid=%lld "
              "cancelled=%lld",
              static_cast<long long>(stats.admitted),
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.batches),
              static_cast<long long>(stats.max_batch_observed),
              static_cast<long long>(stats.rejected_full),
              static_cast<long long>(stats.rejected_invalid),
              static_cast<long long>(stats.cancelled)));
  std::vector<double> latency_ms;
  for (const Done& d : phase_a) latency_ms.push_back(d.LatencyMs());
  NotePercentiles("serve.latency_ms (phase A, from scheduled send)",
                  latency_ms);
  report.end_to_end.Set("latency_p50_ms", Percentile(latency_ms, 50));
  if (in_window == 0) {
    report.Fail("phase B completed no request");
  } else {
    double capacity =
        static_cast<double>(in_window) / Secs(last_ready - b_start);
    Note(Format("serve.capacity_rps=%.4f (%lld requests in %.3f s)", capacity,
                static_cast<long long>(in_window),
                Secs(last_ready - b_start)));
    report.end_to_end.Set("windows_per_s", capacity);
  }

  // Output checks: every response, then solo-vs-served bit identity for two
  // requests (the phase-A first one and the phase-B one coalesced into the
  // largest batch), run on the stopped session's model.
  Quality quality;
  for (const auto* phase : {&phase_a, &phase_b}) {
    for (const Done& d : *phase) {
      if (!d.response.status.ok()) continue;
      CheckImputation(windows[d.window], d.response.result,
                      Format("request %lld", static_cast<long long>(d.id)),
                      &report);
      if (phase == &phase_a && d.id < kQualityRequests) {
        quality.Add(windows[d.window], d.response.result);
      }
    }
  }
  SetQuality(quality, "serve", &report);
  std::vector<const Done*> solo_checks;
  if (!phase_a.empty()) solo_checks.push_back(&phase_a.front());
  const Done* widest = nullptr;
  for (const Done& d : phase_b) {
    if (d.response.status.ok() &&
        (widest == nullptr ||
         d.response.batch_size > widest->response.batch_size)) {
      widest = &d;
    }
  }
  if (widest != nullptr) solo_checks.push_back(widest);
  for (const Done* d : solo_checks) {
    if (!d->response.status.ok()) continue;
    Rng rng(d->seed);
    diffusion::ImputationResult solo = diffusion::ImputeWindow(
        model.get(), schedule, windows[d->window], config.impute, rng);
    bool same = SameResult(solo, d->response.result);
    Note(Format("serve.solo_check: request %lld (batch of %lld) %s",
                static_cast<long long>(d->id),
                static_cast<long long>(d->response.batch_size),
                same ? "bit-identical" : "DIFFERS"));
    if (!same) {
      report.Fail(Format("request %lld differs from solo ImputeWindow",
                         static_cast<long long>(d->id)));
    }
  }
  if (solo_checks.size() < 2) report.Fail("fewer than two solo checks ran");
  SetPeak(&report);

  if (GlobalTracer().enabled()) {
    MetricTable& m = report.per_layer;
    std::vector<double> queue_ms;
    for (const Done& d : phase_a) {
      if (d.response.status.ok()) {
        queue_ms.push_back(Millis(d.response.queue_nanos));
      }
    }
    if (!queue_ms.empty()) m.Set("serve.queue_wait_p50_ms",
                                 Percentile(queue_ms, 50));
    double batch_sum = 0, batch_ms = 0, ok = 0;
    for (const auto* phase : {&phase_a, &phase_b}) {
      for (const Done& d : *phase) {
        if (!d.response.status.ok()) continue;
        ok += 1;
        batch_sum += static_cast<double>(d.response.batch_size);
        batch_ms += Millis(d.response.total_nanos - d.response.queue_nanos);
      }
    }
    if (ok > 0) {
      m.Set("serve.batch_size_mean", batch_sum / ok);
      m.Set("serve.batch_ms_mean", batch_ms / ok);
    }
    m.Set("serve.failed", static_cast<double>(report.failed));
    m.Set("serve.gen_late_ms_max", late_ms_max);
    std::vector<Span> all = GlobalTracer().Spans();
    double calls = 0, rows = 0;
    for (const Span& s : SpansIn(all, before.wall_ns, after.wall_ns)) {
      if (std::strcmp(s.name, "pristi.predict_noise") == 0) {
        calls += 1;
        rows += static_cast<double>(s.rows);
      }
    }
    double units = std::max(ok, 1.0);
    m.Set("diffusion.model_calls_per_window", calls / units);
    m.Set("diffusion.rows_per_call", calls > 0 ? rows / calls : 0);
    SetCommonLayers(all, before, after, units, /*inference=*/true, &report);
  }
  return report;
}

// ---- train-n36 -----------------------------------------------------------------
// One TrainDiffusionModel call on the default single-stream path at AQI-36's
// node count, with pristi_cli train's defaults. The epoch count is fixed per
// --seconds, so the step counts do not depend on the host's speed; the
// epoch boundaries come from TrainOptions::on_epoch.

Report RunTrainN36(const RunOptions& options) {
  constexpr int64_t kNodes = 36;
  constexpr int64_t kSteps = 560;   // 32 training windows of L = 12
  constexpr int64_t kBatch = 8;
  // A 4-CPU host trains about 3.3 epochs of 32 windows per second, so the
  // timed call lasts about --seconds.
  constexpr double kEpochsPerSecond = 3.3;
  // error = mean loss of the call's first ten epochs (40 steps). Later
  // epochs follow seed-specific trajectories: across ten seeds the mean of
  // the last ten epochs had an interquartile share of 0.14, and the mean of
  // all epochs 0.11.
  constexpr int64_t kLossEpochs = 10;
  constexpr int64_t kMinEpochs = 20;
  Report report;
  const diffusion::NoiseSchedule schedule = Schedule();
  diffusion::TrainOptions train;
  train.batch_size = kBatch;
  train.lr = 2e-3f;
  train.mask_strategy = data::MaskStrategy::kPoint;
  train.high_t_bias = 0.5;
  std::vector<double> losses;
  std::vector<int64_t> epoch_end_ns;
  train.on_epoch = [&](int64_t epoch, double loss) {
    int64_t now = NowNanos();
    GlobalTracer().Record("diffusion.train_epoch", epoch,
                          epoch_end_ns.empty() ? now : epoch_end_ns.back(),
                          now);
    losses.push_back(loss);
    epoch_end_ns.push_back(now);
  };

  std::vector<double> setup_rounds;
  std::unique_ptr<data::ImputationTask> task;
  std::shared_ptr<core::PristiModel> model;
  std::shared_ptr<diffusion::ConditionalNoisePredictor> predictor;
  std::unique_ptr<Rng> train_rng;
  int64_t windows_per_epoch = 0;
  for (int round = 0; round < kSetupRounds; ++round) {
    int64_t start = NowNanos();
    Rng deployment(kDeploymentSeed);
    Rng rng(options.seed);
    {
      ScopedSpan span("data.prepare");
      task = std::make_unique<data::ImputationTask>(
          MakeTask(data::Aqi36LikeConfig(kNodes, kSteps), deployment, rng));
      windows_per_epoch =
          static_cast<int64_t>(data::ExtractSamples(*task, "train").size());
    }
    model = std::make_shared<core::PristiModel>(
        ModelConfig(*task), task->dataset.graph.adjacency, deployment);
    predictor = Predictor(model);
    train_rng = std::make_unique<Rng>(rng.Split());
    diffusion::TrainOptions warm = train;
    warm.epochs = 1;
    {
      ScopedSpan span("setup.warmup");
      diffusion::TrainDiffusionModel(predictor.get(), schedule, *task, warm,
                                     *train_rng);
    }
    setup_rounds.push_back(Secs(NowNanos() - start));
  }
  SetSetup(setup_rounds, &report);
  for (double loss : losses) {
    if (!std::isfinite(loss)) report.Fail("non-finite warm-up loss");
  }
  losses.clear();
  epoch_end_ns.clear();

  train.epochs = std::max<int64_t>(
      kMinEpochs, std::llround(kEpochsPerSecond * options.seconds));
  Snapshot before = Snapshot::Take();
  epoch_end_ns.push_back(before.wall_ns);  // the first epoch's start
  {
    ScopedSpan span("diffusion.train");
    diffusion::TrainDiffusionModel(predictor.get(), schedule, *task, train,
                                   *train_rng);
  }
  Snapshot after = Snapshot::Take();

  const int64_t epochs = train.epochs;
  const int64_t steps_per_epoch = (windows_per_epoch + kBatch - 1) / kBatch;
  const int64_t steps = epochs * steps_per_epoch;
  report.attempted = steps;
  for (size_t e = 0; e < losses.size(); ++e) {
    if (!std::isfinite(losses[e])) {
      report.Fail(Format("non-finite loss in epoch %zu", e));
    }
  }
  if (static_cast<int64_t>(losses.size()) != epochs) {
    report.Fail("on_epoch did not fire once per epoch");
    return report;
  }
  std::vector<double> epoch_ms;
  for (size_t e = 1; e < epoch_end_ns.size(); ++e) {
    epoch_ms.push_back(Millis(epoch_end_ns[e] - epoch_end_ns[e - 1]));
  }
  double wall_s = Secs(after.wall_ns - before.wall_ns);
  Note(Format("train: N=%lld L=%lld batch=%lld epochs=%lld x %lld windows "
              "(%lld steps) in %.3f s, %.2f windows/s over the whole call",
              static_cast<long long>(kNodes), static_cast<long long>(kWindow),
              static_cast<long long>(kBatch), static_cast<long long>(epochs),
              static_cast<long long>(windows_per_epoch),
              static_cast<long long>(steps), wall_s,
              static_cast<double>(epochs * windows_per_epoch) / wall_s));
  // Both from the median epoch, as on impute-n325.
  report.end_to_end.Set("windows_per_s",
                        static_cast<double>(windows_per_epoch) * 1e3 /
                            Median(epoch_ms));
  report.end_to_end.Set("latency_p50_ms", Median(epoch_ms));
  NotePercentiles("train.epoch_ms", epoch_ms);
  double first_sum = 0, all_sum = 0;
  for (int64_t e = 0; e < epochs; ++e) {
    double loss = losses[static_cast<size_t>(e)];
    all_sum += loss;
    if (e < kLossEpochs) first_sum += loss;
  }
  Note(Format("train.loss: mean of the first %lld epochs=%.6f, of all "
              "epochs=%.6f, last epoch=%.6f",
              static_cast<long long>(kLossEpochs), first_sum / kLossEpochs,
              all_sum / static_cast<double>(epochs), losses.back()));
  report.end_to_end.Set("error", first_sum / kLossEpochs);
  SetPeak(&report);

  if (GlobalTracer().enabled()) {
    std::vector<Span> all = GlobalTracer().Spans();
    std::vector<Span> timed = SpansIn(all, before.wall_ns, after.wall_ns);
    // Forward: the PredictNoise span. Backward + update: from its end to the
    // next step's PredictNoise (or the call's end); this gap also holds the
    // next batch's window build and the epoch boundary.
    double forward_ns = 0, backward_ns = 0, step_count = 0;
    for (const Span& call : timed) {
      if (std::strcmp(call.name, "diffusion.train") != 0) continue;
      std::vector<const Span*> kids;
      for (const Span& s : timed) {
        if (s.parent == call.id) kids.push_back(&s);
      }
      for (size_t i = 0; i < kids.size(); ++i) {
        int64_t next = i + 1 < kids.size() ? kids[i + 1]->start_ns
                                           : call.end_ns;
        forward_ns += static_cast<double>(kids[i]->end_ns - kids[i]->start_ns);
        backward_ns += static_cast<double>(next - kids[i]->end_ns);
        step_count += 1;
      }
    }
    if (step_count > 0) {
      report.per_layer.Set("diffusion.train_forward_ms",
                           forward_ns * 1e-6 / step_count);
      report.per_layer.Set("diffusion.train_backward_update_ms",
                           backward_ns * 1e-6 / step_count);
    }
    SetCommonLayers(all, before, after, static_cast<double>(steps),
                    /*inference=*/false, &report);
  }
  return report;
}

}  // namespace perfbench
