#include "nn/module.h"

#include <cmath>

#include "common/check.h"

namespace pristi::nn {

std::vector<std::pair<std::string, Variable>> Module::NamedParameters() {
  std::vector<std::pair<std::string, Variable>> all;
  for (auto& [name, param] : params_) all.emplace_back(name, param);
  for (auto& [child_name, child] : children_) {
    for (auto& [name, param] : child->NamedParameters()) {
      all.emplace_back(child_name + "." + name, param);
    }
  }
  return all;
}

std::vector<Variable> Module::Parameters() {
  std::vector<Variable> flat;
  for (auto& [name, param] : NamedParameters()) flat.push_back(param);
  return flat;
}

void Module::ZeroGrad() {
  for (Variable& param : Parameters()) param.ZeroGrad();
}

int64_t Module::ParameterCount() {
  int64_t count = 0;
  for (Variable& param : Parameters()) count += param.numel();
  return count;
}

Variable Module::AddParameter(const std::string& name, const Tensor& init) {
  for (auto& [existing, param] : params_) {
    PRISTI_CHECK(existing != name) << "duplicate parameter name: " << name;
  }
  Variable param(init, /*requires_grad=*/true);
  params_.emplace_back(name, param);
  return param;
}

void Module::AddChild(const std::string& name, Module* child) {
  PRISTI_CHECK(child != nullptr);
  for (auto& [existing, mod] : children_) {
    PRISTI_CHECK(existing != name) << "duplicate child name: " << name;
  }
  children_.emplace_back(name, child);
}

Tensor Module::GlorotUniform(Shape shape, int64_t fan_in, int64_t fan_out,
                             Rng& rng) {
  float a = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Tensor::Rand(std::move(shape), rng, -a, a);
}

Tensor Module::NormalInit(Shape shape, float scale, Rng& rng) {
  Tensor t = Tensor::Randn(std::move(shape), rng);
  t.ScaleInPlace(scale);
  return t;
}

}  // namespace pristi::nn
