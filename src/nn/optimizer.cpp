#include "nn/optimizer.hpp"

#include <cmath>

namespace evd::nn {

Sgd::Sgd(std::vector<Param*> params, float lr, float momentum,
         float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  velocity_.reserve(params_.size());
  for (auto* p : params_) velocity_.emplace_back(p->value.shape());
}

void Sgd::step() {
  for (size_t k = 0; k < params_.size(); ++k) {
    auto& p = *params_[k];
    auto& vel = velocity_[k];
    for (Index i = 0; i < p.value.numel(); ++i) {
      float g = p.grad[i] + weight_decay_ * p.value[i];
      if (momentum_ > 0.0f) {
        vel[i] = momentum_ * vel[i] + g;
        g = vel[i];
      }
      p.value[i] -= lr_ * g;
    }
    ++p.version;
    p.grad.zero();
  }
}

Adam::Adam(std::vector<Param*> params, float lr, float beta1, float beta2,
           float eps)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (auto* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (size_t k = 0; k < params_.size(); ++k) {
    auto& p = *params_[k];
    for (Index i = 0; i < p.value.numel(); ++i) {
      const float g = p.grad[i];
      m_[k][i] = beta1_ * m_[k][i] + (1.0f - beta1_) * g;
      v_[k][i] = beta2_ * v_[k][i] + (1.0f - beta2_) * g * g;
      const double mhat = m_[k][i] / bc1;
      const double vhat = v_[k][i] / bc2;
      p.value[i] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
    }
    ++p.version;
    p.grad.zero();
  }
}

void clip_grad_norm(const std::vector<Param*>& params, float max_norm) {
  double norm2 = 0.0;
  for (auto* p : params) {
    for (Index i = 0; i < p->grad.numel(); ++i) {
      norm2 += static_cast<double>(p->grad[i]) * p->grad[i];
    }
  }
  const double norm = std::sqrt(norm2);
  if (norm <= max_norm || norm == 0.0) return;
  const auto scale = static_cast<float>(max_norm / norm);
  for (auto* p : params) {
    for (Index i = 0; i < p->grad.numel(); ++i) p->grad[i] *= scale;
  }
}

}  // namespace evd::nn
