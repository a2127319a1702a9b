#include "nn/softmax.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace evd::nn {

Tensor softmax(const Tensor& logits) {
  if (logits.numel() == 0) {
    throw std::invalid_argument("softmax: empty logits");
  }
  Tensor out = logits;
  softmax_into(logits, out);
  return out;
}

void softmax_into(const Tensor& logits, Tensor& out) {
  if (logits.numel() == 0) {
    throw std::invalid_argument("softmax: empty logits");
  }
  if (out.numel() != logits.numel()) {
    throw std::invalid_argument("softmax_into: shape mismatch");
  }
  const float m = [&] {
    float best = logits[0];
    for (Index i = 1; i < logits.numel(); ++i) best = std::max(best, logits[i]);
    return best;
  }();
  double sum = 0.0;
  for (Index i = 0; i < logits.numel(); ++i) {
    out[i] = std::exp(logits[i] - m);
    sum += out[i];
  }
  const auto inv = static_cast<float>(1.0 / sum);
  for (Index i = 0; i < out.numel(); ++i) out[i] *= inv;
}

Top1 softmax_top1(std::span<const float> logits) {
  if (logits.empty()) {
    throw std::invalid_argument("softmax_top1: empty logits");
  }
  // softmax_into's arithmetic, step for step: the same running max, the
  // same float exponentials summed in double, the same float reciprocal.
  float m = logits[0];
  for (size_t i = 1; i < logits.size(); ++i) m = std::max(m, logits[i]);
  double sum = 0.0;
  for (const float x : logits) {
    const float e = std::exp(x - m);
    sum += e;
  }
  const auto inv = static_cast<float>(1.0 / sum);
  Top1 top;
  top.index = static_cast<Index>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
  const float e = std::exp(logits[static_cast<size_t>(top.index)] - m);
  top.probability = e * inv;
  return top;
}

CrossEntropy softmax_cross_entropy(const Tensor& logits, Index target) {
  if (target < 0 || target >= logits.numel()) {
    throw std::invalid_argument("softmax_cross_entropy: target out of range");
  }
  CrossEntropy result;
  result.probabilities = softmax(logits);
  const double p = std::max(
      static_cast<double>(result.probabilities[target]), 1e-12);
  result.loss = -std::log(p);
  result.grad = result.probabilities;
  result.grad[target] -= 1.0f;
  return result;
}

MseLoss mse_loss(const Tensor& prediction, const Tensor& target) {
  if (prediction.numel() != target.numel() || prediction.numel() == 0) {
    throw std::invalid_argument("mse_loss: shape mismatch or empty");
  }
  MseLoss result;
  result.grad = Tensor(prediction.shape());
  const double inv = 1.0 / static_cast<double>(prediction.numel());
  for (Index i = 0; i < prediction.numel(); ++i) {
    const double diff = static_cast<double>(prediction[i]) - target[i];
    result.loss += diff * diff * inv;
    result.grad[i] = static_cast<float>(2.0 * diff * inv);
  }
  return result;
}

}  // namespace evd::nn
