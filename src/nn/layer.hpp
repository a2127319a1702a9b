// Layer interface for the from-scratch network stack.
//
// Layers own their parameters and their parameter gradients, cache whatever
// they need from the forward pass, and implement an explicit backward pass.
// There is no autograd graph: Sequential simply calls backward in reverse
// order, which is all the architectures in this library need.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace evd::nn {

/// A learnable parameter: value + gradient accumulator.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;
  /// Bumped by every writer of `value` (optimizer steps, load_params,
  /// pruning, quantization) and by the owners' accessors that hand out a
  /// mutable handle. Owners that cache values derived from the weights
  /// (DerivedCache) rebuild only when it has moved; code that keeps a
  /// handle and writes through it later must bump it too.
  std::uint64_t version = 0;

  explicit Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass. `train` enables caching for backward.
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Backward pass: gradient w.r.t. input given gradient w.r.t. output.
  /// Accumulates into parameter grads. Requires a prior forward(train=true).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Mutable views of this layer's parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  virtual std::string name() const = 0;

  /// Total learnable scalar count.
  Index param_count() {
    Index n = 0;
    for (auto* p : params()) n += p->value.numel();
    return n;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace evd::nn
