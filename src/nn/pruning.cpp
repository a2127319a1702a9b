#include "nn/pruning.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace evd::nn {

PruneMask::PruneMask(std::vector<Param*> params) : params_(std::move(params)) {
  keep_.reserve(params_.size());
  for (auto* p : params_) {
    keep_.emplace_back(static_cast<size_t>(p->value.numel()), 1);
  }
}

void PruneMask::prune_magnitude(double fraction) {
  if (fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument("prune_magnitude: fraction out of [0,1]");
  }
  for (size_t k = 0; k < params_.size(); ++k) {
    auto& p = *params_[k];
    if (p.value.rank() < 2) continue;  // skip biases
    const auto n = static_cast<size_t>(p.value.numel());
    std::vector<float> mags(n);
    for (size_t i = 0; i < n; ++i) {
      mags[i] = std::fabs(p.value[static_cast<Index>(i)]);
    }
    auto sorted = mags;
    const auto cut = static_cast<size_t>(fraction * static_cast<double>(n));
    if (cut == 0) continue;
    std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(cut - 1),
                     sorted.end());
    const float threshold = sorted[cut - 1];
    size_t pruned = 0;
    for (size_t i = 0; i < n && pruned < cut; ++i) {
      if (mags[i] <= threshold && keep_[k][i]) {
        keep_[k][i] = 0;
        ++pruned;
      }
    }
  }
  apply();
}

void PruneMask::prune_structured_rows(double fraction) {
  if (fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument("prune_structured_rows: fraction out of [0,1]");
  }
  for (size_t k = 0; k < params_.size(); ++k) {
    auto& p = *params_[k];
    if (p.value.rank() < 2) continue;
    const Index rows = p.value.dim(0);
    const Index row_size = p.value.numel() / rows;
    std::vector<std::pair<double, Index>> norms;
    norms.reserve(static_cast<size_t>(rows));
    for (Index r = 0; r < rows; ++r) {
      double n2 = 0.0;
      for (Index i = 0; i < row_size; ++i) {
        const float v = p.value[r * row_size + i];
        n2 += static_cast<double>(v) * v;
      }
      norms.emplace_back(n2, r);
    }
    std::sort(norms.begin(), norms.end());
    const auto cut =
        static_cast<size_t>(fraction * static_cast<double>(rows));
    for (size_t j = 0; j < cut; ++j) {
      const Index r = norms[j].second;
      for (Index i = 0; i < row_size; ++i) {
        keep_[k][static_cast<size_t>(r * row_size + i)] = 0;
      }
    }
  }
  apply();
}

void PruneMask::apply() {
  for (size_t k = 0; k < params_.size(); ++k) {
    auto& p = *params_[k];
    for (Index i = 0; i < p.value.numel(); ++i) {
      if (!keep_[k][static_cast<size_t>(i)]) p.value[i] = 0.0f;
    }
    ++p.version;
  }
}

double PruneMask::sparsity() const {
  Index total = 0, pruned = 0;
  for (const auto& mask : keep_) {
    total += static_cast<Index>(mask.size());
    for (const char bit : mask) pruned += bit ? 0 : 1;
  }
  return total > 0 ? static_cast<double>(pruned) / static_cast<double>(total)
                   : 0.0;
}

double weight_sparsity(const std::vector<Param*>& params) {
  Index total = 0, zeros = 0;
  for (const auto* p : params) {
    total += p->value.numel();
    for (Index i = 0; i < p->value.numel(); ++i) {
      zeros += (p->value[i] == 0.0f) ? 1 : 0;
    }
  }
  return total > 0 ? static_cast<double>(zeros) / static_cast<double>(total)
                   : 0.0;
}

}  // namespace evd::nn
