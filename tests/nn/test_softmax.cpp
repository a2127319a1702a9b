#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "nn/softmax.hpp"
#include "test_util.hpp"

namespace evd::nn {
namespace {

TEST(Softmax, SumsToOne) {
  Rng rng(1);
  const Tensor logits = Tensor::randn({10}, rng, 3.0f);
  const Tensor p = softmax(logits);
  double sum = 0.0;
  for (Index i = 0; i < p.numel(); ++i) {
    EXPECT_GT(p[i], 0.0f);
    sum += p[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

TEST(Softmax, InvariantToShift) {
  Tensor a({3});
  a.vec() = {1.0f, 2.0f, 3.0f};
  Tensor b({3});
  b.vec() = {101.0f, 102.0f, 103.0f};
  const Tensor pa = softmax(a);
  const Tensor pb = softmax(b);
  for (Index i = 0; i < 3; ++i) EXPECT_NEAR(pa[i], pb[i], 1e-6);
}

TEST(Softmax, HandlesExtremeLogits) {
  Tensor logits({2});
  logits.vec() = {1000.0f, -1000.0f};
  const Tensor p = softmax(logits);
  EXPECT_NEAR(p[0], 1.0f, 1e-6);
  EXPECT_NEAR(p[1], 0.0f, 1e-6);
}

TEST(Softmax, EmptyThrows) {
  EXPECT_THROW(softmax(Tensor{}), std::invalid_argument);
}

TEST(Softmax, Top1IsBitwiseTheTensorPath) {
  // Random logits, near-ties that round to equal exponentials, exact ties
  // (the first index wins) and a single class.
  std::vector<std::vector<float>> cases = {
      {0.5f},
      {2.0f, 2.0f, -1.0f},
      {1.0f, std::nextafter(1.0f, 0.0f), 0.25f},
      {-3.0f, 7.5f, 7.5f, 1e-7f},
  };
  Rng rng(9);
  for (int k = 0; k < 200; ++k) {
    const Tensor t = Tensor::randn({1 + k % 7}, rng, 4.0f);
    cases.push_back(t.vec());
  }
  for (const std::vector<float>& logits : cases) {
    Tensor t({static_cast<Index>(logits.size())});
    t.vec() = logits;
    const Top1 top = softmax_top1(logits);
    EXPECT_EQ(top.index, t.argmax());
    const float want = softmax(t)[t.argmax()];
    EXPECT_EQ(std::memcmp(&top.probability, &want, sizeof want), 0)
        << top.probability << " vs " << want;
  }
  EXPECT_THROW(softmax_top1({}), std::invalid_argument);
}

TEST(CrossEntropy, LossValueUniform) {
  Tensor logits({4});  // all-zero logits: p = 1/4
  const auto ce = softmax_cross_entropy(logits, 2);
  EXPECT_NEAR(ce.loss, std::log(4.0), 1e-5);
}

TEST(CrossEntropy, GradIsProbMinusOneHot) {
  Tensor logits({3});
  logits.vec() = {0.5f, -1.0f, 2.0f};
  const auto ce = softmax_cross_entropy(logits, 0);
  for (Index i = 0; i < 3; ++i) {
    const float expected =
        ce.probabilities[i] - (i == 0 ? 1.0f : 0.0f);
    EXPECT_NEAR(ce.grad[i], expected, 1e-6);
  }
}

TEST(CrossEntropy, GradCheckNumeric) {
  Rng rng(2);
  const Tensor logits = Tensor::randn({5}, rng);
  const auto ce = softmax_cross_entropy(logits, 3);
  auto loss = [&](const Tensor& probe) {
    return softmax_cross_entropy(probe, 3).loss;
  };
  test::expect_gradients_close(ce.grad,
                               test::numeric_gradient(loss, logits), 1e-2);
}

TEST(CrossEntropy, TargetOutOfRangeThrows) {
  Tensor logits({3});
  EXPECT_THROW(softmax_cross_entropy(logits, 3), std::invalid_argument);
  EXPECT_THROW(softmax_cross_entropy(logits, -1), std::invalid_argument);
}

}  // namespace
}  // namespace evd::nn
