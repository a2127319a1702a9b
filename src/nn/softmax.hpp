// Softmax + cross-entropy, fused for numerical stability.
#pragma once

#include <span>

#include "nn/tensor.hpp"

namespace evd::nn {

/// Numerically stable softmax over a flat logit vector.
Tensor softmax(const Tensor& logits);

/// softmax writing into caller-owned `out` (same numel, preallocated):
/// allocation-free and bitwise identical to softmax(). `out` may not alias
/// `logits`. Streaming sessions use this on their per-event path.
void softmax_into(const Tensor& logits, Tensor& out);

/// The top class of a non-empty logit vector and its softmax probability,
/// without materialising the softmax: bitwise equal to
/// {t.argmax(), softmax(t)[t.argmax()]} for a Tensor t holding `logits`.
struct Top1 {
  Index index = 0;
  float probability = 0.0f;
};
Top1 softmax_top1(std::span<const float> logits);

/// Fused softmax-cross-entropy. Returns the loss; writes d(loss)/d(logits)
/// into grad (same shape as logits). target is the class index.
struct CrossEntropy {
  double loss = 0.0;
  Tensor grad;
  Tensor probabilities;
};

CrossEntropy softmax_cross_entropy(const Tensor& logits, Index target);

/// Mean-squared-error loss for regression heads (e.g. localization).
/// Returns the loss; grad is d(loss)/d(prediction).
struct MseLoss {
  double loss = 0.0;
  Tensor grad;
};

MseLoss mse_loss(const Tensor& prediction, const Tensor& target);

}  // namespace evd::nn
