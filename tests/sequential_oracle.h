#ifndef PRISTI_TESTS_SEQUENTIAL_ORACLE_H_
#define PRISTI_TESTS_SEQUENTIAL_ORACLE_H_

// One-chain-at-a-time reference sampler for the batched reverse-diffusion
// path.
//
// diffusion::ImputeWindow stacks all S chains into one (S, N, L) state and
// makes one model call per kept step. This oracle runs the same S chains
// one after another at batch size 1, each with its own fresh stepper, from
// the same counter-seeded streams (MakeChainStreams), and merges and
// summarizes them the way ImputeWindow does. It is built only from the
// public sampler API, so comparing the two checks ImputeWindow from the
// outside: agreement proves that stacking never mixes chains (PLMS history,
// DDPM noise draws) and that no per-entry operation depends on the batch
// size.

#include <cstdint>
#include <memory>
#include <vector>

#include "autograd/variable.h"
#include "common/rng.h"
#include "data/windows.h"
#include "diffusion/ddpm.h"
#include "diffusion/sampler.h"
#include "diffusion/schedule.h"
#include "tensor/tensor.h"

namespace pristi::testing {

// Same contract as diffusion::ImputeWindow: consumes one draw from `rng`,
// returns options.num_samples merged samples plus their per-entry median.
inline diffusion::ImputationResult SequentialImputeWindow(
    diffusion::ConditionalNoisePredictor* model,
    const diffusion::NoiseSchedule& schedule, const data::Sample& sample,
    const diffusion::ImputeOptions& options, Rng& rng) {
  using tensor::Shape;
  using tensor::Tensor;
  autograd::NoGradGuard no_grad;
  int64_t n = sample.values.dim(0), l = sample.values.dim(1);
  // Everything not observed is imputed (Algorithm 2).
  Tensor target_mask(Shape{n, l});
  for (int64_t i = 0; i < target_mask.numel(); ++i) {
    target_mask[i] = sample.observed[i] > 0.5f ? 0.0f : 1.0f;
  }
  diffusion::DiffusionBatch batch = diffusion::MakeSingleWindowBatch(
      sample.values, sample.observed, target_mask);
  Tensor observed_values = tensor::Mul(sample.values, sample.observed);
  std::vector<Rng> chains =
      diffusion::MakeChainStreams(rng, options.num_samples);
  std::vector<diffusion::ReverseStep> plan =
      diffusion::PlanReverseSteps(schedule, options.num_inference_steps);

  diffusion::ImputationResult result;
  for (Rng& chain : chains) {
    Tensor x(Shape{1, n, l});
    diffusion::FillChainNoise(&x, &chain, 1, batch.target_mask);
    std::unique_ptr<diffusion::SamplerStepper> stepper =
        diffusion::MakeSamplerStepper(options.sampler, plan.size());
    for (size_t si = 0; si < plan.size(); ++si) {
      stepper->Step(model, batch, plan, si, &x, &chain, 1, batch.target_mask);
    }
    // Generated values on the target entries, observations elsewhere.
    Tensor merged = observed_values;
    float* pm = merged.data();
    const float* px = x.data();
    const float* pt = target_mask.data();
    for (int64_t i = 0; i < merged.numel(); ++i) pm[i] += px[i] * pt[i];
    result.samples.push_back(std::move(merged));
  }
  result.median = Tensor(Shape{n, l});
  for (int64_t node = 0; node < n; ++node) {
    for (int64_t step = 0; step < l; ++step) {
      result.median.at({node, step}) = result.Quantile(node, step, 0.5);
    }
  }
  return result;
}

}  // namespace pristi::testing

#endif  // PRISTI_TESTS_SEQUENTIAL_ORACLE_H_
