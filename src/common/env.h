#ifndef PRISTI_COMMON_ENV_H_
#define PRISTI_COMMON_ENV_H_

// Environment-variable knobs: the accessors (GetEnvOr / GetEnvIntOr) and
// the registry of every PRISTI_* knob the tree reads.
//
// The block between the markers below is machine-checked by the
// env-registry pass of pristi_analyze: every `getenv`/`GetEnvOr` of a
// PRISTI_* name anywhere in src/, tools/, tests/ or bench/ (including
// tools/*.sh) must be declared here, and every declared knob must be read
// somewhere. Keep one `//   PRISTI_NAME  <default — effect>` line per
// knob; continuation lines are free-form.
//
// pristi-env-registry-begin
//
// Scale and debugging:
//   PRISTI_SCALE  "quick" — benches and eval default to CI-friendly
//          reduced scale; "full" selects paper-scale shapes
//          (FullScaleRequested below).
//   PRISTI_THREADS  0 — worker-thread count for the persistent
//          ParallelFor pool (src/common/parallel.cc); 0/unset means
//          hardware concurrency. Also honored by the sanitizer matrix in
//          tools/run_static_analysis.sh.
//   PRISTI_DEBUG_NANCHECK  0 — 1 enables the non-finite-value canary in
//          debug checks (src/common/check.cc): tensors are scanned for
//          NaN/Inf at checkpoints, at a large cost.
//
// Memory model (consumed by src/tensor/storage.cc; read once at first
// allocation, so set them before the process starts):
//   PRISTI_BUFFER_POOL  1 — 0 disables the Storage buffer pool's
//          recycling; every tensor buffer comes from the heap. The A/B
//          baseline for allocator measurements; counters in
//          tensor::GetAllocStats() accumulate either way.
//   PRISTI_POOL_MAX_MB  512 — cap on bytes cached in the pool's free
//          lists. Excess frees go back to the heap.
//
// GEMM kernel layer (consumed by src/tensor/kernels/; read once at first
// GEMM):
//   PRISTI_PACK_CACHE_MB  64 — cap on resident packed weight panels in
//          the GEMM pack cache. 0 disables the cache: every call repacks
//          its operands into thread-local scratch.
//   PRISTI_ATTN_FUSED  1 — 0 routes MultiHeadAttention back through the
//          materialized BatchedMatMulNT -> SoftmaxLastDim -> BatchedMatMul
//          chain instead of the streaming fused kernel
//          (src/tensor/kernels/attention.cc). The A/B baseline for
//          AttentionBench and the bitwise path the training-loss goldens
//          pin; fused vs reference is a 1e-5 tolerance contract, not
//          bitwise.
//
// Serving layer (defaults resolved once by serve::ServeConfig::FromEnv in
// src/serve/session.cc; pristi_serve and ServeBench read their batching
// policy through it):
//   PRISTI_SERVE_MAX_BATCH  8 — coalesce at most this many queued requests
//          into one (R*S, N, L) reverse-diffusion call; a full batch
//          flushes immediately.
//   PRISTI_SERVE_MAX_WAIT_MS  5 — flush a partial batch once the OLDEST
//          queued request has waited this long; the other half of the
//          "size or deadline, whichever first" batching policy.
//   PRISTI_SERVE_QUEUE_CAP  64 — bounded admission queue capacity; when
//          full, Submit rejects with the retryable queue-full status
//          instead of blocking the client.
//   PRISTI_SERVE_SAMPLER  unset — session-default reverse sampler
//          (ddpm|ddim|plms); unset keeps ImputeOptions' built-in default.
//          Unknown names abort at startup. Requests may still override per
//          request.
//   PRISTI_SERVE_STEPS  0 — session-default kept reverse steps
//          (diffusion::ImputeOptions::num_inference_steps); 0 = full
//          schedule.
//
// Training:
//   PRISTI_TRAIN_SHARDS  0 — default shard count for `pristi_cli train`
//          when --shards is not given (diffusion::TrainOptions::num_shards);
//          0 keeps the classic single-stream loop, K >= 1 routes training
//          through the shard-parallel engine (diffusion/sharded_train.h),
//          bit-identical for any K at any thread count.
//
// Test and CI harness:
//   PRISTI_REGEN_GOLDEN  unset — when set, golden-file tests
//          (serialize_test, sharded_train_test, sampler_equivalence_test)
//          rewrite their checked-in golden artifacts instead of comparing
//          against them.
//   PRISTI_BENCH_DIR  unset — when set, bench binaries and bench-flavored
//          tests route their CSV/JSON reports into this directory through
//          bench::ArtifactPath (bench/bench_common.h) instead of their
//          default output locations.
//   PRISTI_SANITIZE_CONFIGS  "address+undefined thread" — which sanitizer
//          configs tools/run_static_analysis.sh builds and tests.
//   PRISTI_NATIVE_BITEQ  0 — 1 adds the -march=native bit-identity leg to
//          tools/run_static_analysis.sh (requires matching hardware).
//   PRISTI_SHARD_BITEQ  1 — 0 skips the 1-shard-vs-4-shard training
//          bit-identity leg of tools/run_static_analysis.sh.
//   PRISTI_ATTN_PARITY  1 — 0 skips the fused-off vs fused-on sampler
//          output parity leg of tools/run_static_analysis.sh (tolerance
//          compare of pristi_cli impute outputs under PRISTI_ATTN_FUSED=1
//          and =0).
//
// pristi-env-registry-end

#include <cstdlib>
#include <string>

namespace pristi {

inline std::string GetEnvOr(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::string(value) : fallback;
}

inline int64_t GetEnvIntOr(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  long long parsed = std::strtoll(value, &end, 10);
  if (end == value) return fallback;
  return static_cast<int64_t>(parsed);
}

// True when the caller asked for paper-scale experiment shapes.
inline bool FullScaleRequested() {
  return GetEnvOr("PRISTI_SCALE", "quick") == "full";
}

}  // namespace pristi

#endif  // PRISTI_COMMON_ENV_H_
