#include "nn/quantization.hpp"

#include <cmath>
#include <stdexcept>

namespace evd::nn {

QuantResult fake_quantize(const Tensor& tensor, int bits) {
  if (bits < 2 || bits > 16) {
    throw std::invalid_argument("fake_quantize: bits must be in [2, 16]");
  }
  QuantResult result;
  result.bits = bits;
  const float max_abs = tensor.max_abs();
  const float qmax = static_cast<float>((1 << (bits - 1)) - 1);
  result.scale = max_abs > 0.0f ? max_abs / qmax : 1.0f;
  result.values = tensor;
  for (Index i = 0; i < result.values.numel(); ++i) {
    const float q = std::round(result.values[i] / result.scale);
    result.values[i] =
        std::min(std::max(q, -qmax - 1.0f), qmax) * result.scale;
  }
  return result;
}

void quantize_params(const std::vector<Param*>& params, int bits) {
  for (auto* p : params) {
    p->value = fake_quantize(p->value, bits).values;
    ++p->version;
  }
}

QatTrainer::QatTrainer(std::vector<Param*> params, int bits)
    : params_(std::move(params)), bits_(bits) {
  latent_.reserve(params_.size());
  for (auto* p : params_) latent_.push_back(p->value);
}

void QatTrainer::quantize_for_forward() {
  if (quantized_) throw std::logic_error("QatTrainer: already quantized");
  for (size_t k = 0; k < params_.size(); ++k) {
    latent_[k] = params_[k]->value;  // capture latest latent
    params_[k]->value = fake_quantize(latent_[k], bits_).values;
    ++params_[k]->version;
  }
  quantized_ = true;
}

void QatTrainer::restore_latent() {
  if (!quantized_) throw std::logic_error("QatTrainer: not quantized");
  for (size_t k = 0; k < params_.size(); ++k) {
    params_[k]->value = latent_[k];
    ++params_[k]->version;
  }
  quantized_ = false;
}

}  // namespace evd::nn
