// KernelBench: GFLOP/s for the tiled GEMM kernel layer on the GEMM shapes
// the PriSTI models actually issue — Linear/Conv1x1 weight products
// (MatMulLastDim), per-head attention scores (BatchedMatMulNT), and
// graph-conv node mixing (MatMulNodeDim) — on the AQI-36 and METR-LA
// presets. Each shape is timed on the tiled path and on the retained
// reference kernel, with a bitwise cross-check between the two (the
// layer's bit-identity contract makes that an exact comparison).
//
// Emits BENCH_kernels.json to PRISTI_BENCH_DIR (or a temp dir). Records
// numbers, asserts nothing about speed; registered under the `bench` ctest
// label so gating runs exclude it (`ctest -LE bench`).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.h"
#include "common/env.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "tensor/kernels/kernels.h"
#include "tensor/tensor.h"
#include "test_tmpdir.h"

namespace pristi::tensor {
namespace {

namespace kn = kernels;

struct BenchShape {
  const char* name;    // which model product this shape comes from
  int64_t batch;       // 1 = single Gemm, >1 = BatchedGemm
  int64_t m, k, n;
  kn::Layout layout_a;
  kn::Layout layout_b;
};

// Preset-derived shapes. Linear rows collapse (B, N, L, d) to
// (B*N*L, d_in) x (d_in, d_out); attention runs per (batch, head, node);
// graph conv mixes the node axis per (batch, step).
const BenchShape kShapes[] = {
    // AQI-36 full window: B=4, N=36, L=36, d=64 Linear.
    {"lastdim-aqi36", 1, 4 * 36 * 36, 64, 64, kn::Layout::kNormal,
     kn::Layout::kNormal},
    // METR-LA full nodes: B=4, N=207, L=24, d=64 Linear.
    {"lastdim-metrla", 1, 4 * 207 * 24, 64, 64, kn::Layout::kNormal,
     kn::Layout::kNormal},
    // Temporal attention scores Q·Kᵀ on AQI-36: batch = B*h*N = 4*8*36,
    // S = L = 36, dh = 8.
    {"attn-scores-aqi36", 4 * 8 * 36, 36, 8, 36, kn::Layout::kNormal,
     kn::Layout::kTransposed},
    // Graph conv on METR-LA quick nodes: (N, N) support applied per
    // (batch, step) slice, d = 64 channels.
    {"nodedim-metrla", 4 * 24, 207, 207, 64, kn::Layout::kNormal,
     kn::Layout::kNormal},
};

// Repeats `fn` until it has run for at least ~0.2 s, returns seconds/call.
template <typename Fn>
double TimePerCall(const Fn& fn) {
  fn();  // warm-up: scratch buffers, pool workers
  int64_t iters = 1;
  for (;;) {
    Stopwatch watch;
    for (int64_t i = 0; i < iters; ++i) fn();
    double sec = watch.ElapsedSeconds();
    if (sec >= 0.2 || iters >= (int64_t{1} << 20)) {
      return sec / static_cast<double>(iters);
    }
    iters *= 2;
  }
}

TEST(KernelBench, GemmGflopsOnPresetShapes) {
  pristi::testing::TestTempDir tmp;
  std::string json_path =
      ::pristi::bench::ArtifactPath("BENCH_kernels.json", tmp.path().string());
  std::FILE* json = std::fopen(json_path.c_str(), "w");
  ASSERT_NE(json, nullptr);
  std::fprintf(json,
               "{\n"
               "  \"threads\": %lld,\n"
               "  \"row_tile\": %lld,\n"
               "  \"col_tile\": %lld,\n"
               "  \"shapes\": [",
               static_cast<long long>(ParallelThreadCount()),
               static_cast<long long>(kn::kRowTile),
               static_cast<long long>(kn::kColTile));
  std::printf("GEMM kernels (%lld threads)\n",
              static_cast<long long>(ParallelThreadCount()));
  std::printf("%20s %8s %22s %10s %10s %8s\n", "shape", "batch", "m x k x n",
              "tiled", "ref", "ratio");

  Rng rng(97);
  bool first = true;
  for (const BenchShape& s : kShapes) {
    // Operand buffers in the layout the kernel will read them.
    int64_t a_rows = s.layout_a == kn::Layout::kNormal ? s.m : s.k;
    int64_t a_cols = s.layout_a == kn::Layout::kNormal ? s.k : s.m;
    int64_t b_rows = s.layout_b == kn::Layout::kNormal ? s.k : s.n;
    int64_t b_cols = s.layout_b == kn::Layout::kNormal ? s.n : s.k;
    Tensor a = Tensor::Randn({s.batch, a_rows, a_cols}, rng);
    Tensor b = Tensor::Randn({s.batch, b_rows, b_cols}, rng);
    Tensor c(Shape{s.batch, s.m, s.n});
    const double flops =
        2.0 * static_cast<double>(s.batch) * static_cast<double>(s.m) *
        static_cast<double>(s.n) * static_cast<double>(s.k);

    auto run_tiled = [&] {
      c.Fill(0.0f);
      if (s.batch == 1) {
        kn::Gemm(s.layout_a, s.layout_b, s.m, s.n, s.k, a.data(), b.data(),
                 c.data());
      } else {
        kn::BatchedGemm(s.layout_a, s.layout_b, s.batch, s.m, s.n, s.k,
                        a.data(), a_rows * a_cols, b.data(), b_rows * b_cols,
                        c.data());
      }
    };
    Tensor ref(Shape{s.batch, s.m, s.n});
    auto run_ref = [&] {
      ref.Fill(0.0f);
      for (int64_t bi = 0; bi < s.batch; ++bi) {
        kn::ReferenceGemm(s.layout_a, s.layout_b, s.m, s.n, s.k,
                          a.data() + bi * a_rows * a_cols,
                          b.data() + bi * b_rows * b_cols,
                          ref.data() + bi * s.m * s.n);
      }
    };

    // Bitwise cross-check before timing: the contract the goldens rely on.
    run_tiled();
    run_ref();
    for (int64_t i = 0; i < c.numel(); ++i) {
      ASSERT_EQ(c[i], ref[i]) << s.name << " diverged at flat index " << i;
    }

    double tiled_sec = TimePerCall(run_tiled);
    double ref_sec = TimePerCall(run_ref);
    double tiled_gflops = flops / tiled_sec / 1e9;
    double ref_gflops = flops / ref_sec / 1e9;
    EXPECT_GT(tiled_gflops, 0.0);
    std::fprintf(json,
                 "%s\n    {\"name\": \"%s\", \"batch\": %lld, \"m\": %lld, "
                 "\"k\": %lld, \"n\": %lld, "
                 "\"tiled_gflops_per_sec\": %.3f, "
                 "\"reference_gflops_per_sec\": %.3f, "
                 "\"tiled_over_reference\": %.3f}",
                 first ? "" : ",", s.name, static_cast<long long>(s.batch),
                 static_cast<long long>(s.m), static_cast<long long>(s.k),
                 static_cast<long long>(s.n), tiled_gflops, ref_gflops,
                 ref_sec / tiled_sec);
    std::printf("%20s %8lld %10lldx%4lldx%5lld %7.2f GF %7.2f GF %7.2fx\n",
                s.name, static_cast<long long>(s.batch),
                static_cast<long long>(s.m), static_cast<long long>(s.k),
                static_cast<long long>(s.n), tiled_gflops, ref_gflops,
                ref_sec / tiled_sec);
    first = false;
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("[json written to %s]\n", json_path.c_str());
}

}  // namespace
}  // namespace pristi::tensor
