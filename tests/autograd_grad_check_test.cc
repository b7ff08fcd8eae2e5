#include <functional>

#include "gtest/gtest.h"
#include "src/autograd/ops.h"
#include "src/autograd/variable.h"
#include "tests/grad_check.h"

namespace alt {
namespace ag {
namespace {

using ::alt::testing::ExpectGradientsClose;

/// Each case builds a scalar loss from one or two parameters and is verified
/// against central finite differences.
struct GradCase {
  std::string name;
  std::function<Variable(Variable&, Variable&)> build;
  std::vector<int64_t> shape_a;
  std::vector<int64_t> shape_b;
};

class OpGradCheckTest : public ::testing::TestWithParam<GradCase> {};

TEST_P(OpGradCheckTest, MatchesFiniteDifferences) {
  const GradCase& c = GetParam();
  Rng rng(11);
  Variable a = Variable::Parameter(Tensor::Randn(c.shape_a, &rng, 0.5f));
  Variable b = Variable::Parameter(Tensor::Randn(c.shape_b, &rng, 0.5f));
  ExpectGradientsClose([&]() { return c.build(a, b); }, {&a, &b});
}

std::vector<GradCase> MakeCases() {
  std::vector<GradCase> cases;
  auto add_case = [&](std::string name,
                      std::function<Variable(Variable&, Variable&)> fn,
                      std::vector<int64_t> sa, std::vector<int64_t> sb) {
    cases.push_back({std::move(name), std::move(fn), std::move(sa),
                     std::move(sb)});
  };

  add_case(
      "Add", [](Variable& a, Variable& b) { return SumAll(Add(a, b)); },
      {2, 3}, {2, 3});
  add_case(
      "Sub",
      [](Variable& a, Variable& b) { return SumAll(Mul(Sub(a, b), a)); },
      {2, 3}, {2, 3});
  add_case(
      "Mul", [](Variable& a, Variable& b) { return SumAll(Mul(a, b)); },
      {4}, {4});
  add_case(
      "ScalarOps",
      [](Variable& a, Variable& b) {
        return SumAll(Add(ScalarMul(a, 1.7f), ScalarAdd(b, -0.3f)));
      },
      {3}, {3});
  add_case(
      "AddBias",
      [](Variable& a, Variable& b) {
        return SumAll(Mul(AddBias(a, b), AddBias(a, b)));
      },
      {3, 2}, {2});
  add_case(
      "AddBias3D",
      [](Variable& a, Variable& b) {
        return MeanAll(Mul(AddBias(a, b), AddBias(a, b)));
      },
      {2, 3, 2}, {2});
  add_case(
      "MulScalarVar",
      [](Variable& a, Variable& b) { return SumAll(MulScalarVar(a, b)); },
      {2, 2}, {1});
  add_case(
      "MatMul",
      [](Variable& a, Variable& b) { return SumAll(Mul(MatMul(a, b), MatMul(a, b))); },
      {3, 4}, {4, 2});
  add_case(
      "BatchedMatMul",
      [](Variable& a, Variable& b) {
        return SumAll(BatchedMatMul(a, b, false, false));
      },
      {2, 3, 4}, {2, 4, 2});
  add_case(
      "BatchedMatMulTransB",
      [](Variable& a, Variable& b) {
        Variable c = BatchedMatMul(a, b, false, true);
        return SumAll(Mul(c, c));
      },
      {2, 3, 4}, {2, 5, 4});
  add_case(
      "BatchedMatMulTransA",
      [](Variable& a, Variable& b) {
        Variable c = BatchedMatMul(a, b, true, false);
        return SumAll(Mul(c, c));
      },
      {2, 4, 3}, {2, 4, 5});
  add_case(
      "Reshape",
      [](Variable& a, Variable& b) {
        return SumAll(Mul(Reshape(a, {3, 2}), Reshape(b, {3, 2})));
      },
      {2, 3}, {6});
  add_case(
      "SliceConcat",
      [](Variable& a, Variable& b) {
        Variable s1 = SliceLastDim(a, 0, 2);
        Variable s2 = SliceLastDim(a, 2, 2);
        Variable cat = ConcatLastDim({s2, s1, b});
        return SumAll(Mul(cat, cat));
      },
      {2, 4}, {2, 3});
  add_case(
      "SelectStackTime",
      [](Variable& a, Variable& b) {
        Variable t0 = SelectTime(a, 0);
        Variable t1 = SelectTime(a, 1);
        Variable stacked = StackTime({t1, t0});
        return SumAll(Mul(stacked, b));
      },
      {2, 2, 3}, {2, 2, 3});
  add_case(
      "Sigmoid",
      [](Variable& a, Variable& b) { return SumAll(Mul(Sigmoid(a), b)); },
      {5}, {5});
  add_case(
      "Tanh",
      [](Variable& a, Variable& b) { return SumAll(Mul(Tanh(a), b)); }, {5},
      {5});
  add_case(
      "Gelu",
      [](Variable& a, Variable& b) { return SumAll(Mul(Gelu(a), b)); }, {5},
      {5});
  add_case(
      "Exp", [](Variable& a, Variable& b) { return SumAll(Mul(Exp(a), b)); },
      {4}, {4});
  add_case(
      "Softmax",
      [](Variable& a, Variable& b) {
        return SumAll(Mul(SoftmaxLastDim(a), b));
      },
      {3, 4}, {3, 4});
  add_case(
      "MeanAll",
      [](Variable& a, Variable& b) {
        return Add(MeanAll(Mul(a, a)), MeanAll(b));
      },
      {3, 3}, {2});
  add_case(
      "MeanTime",
      [](Variable& a, Variable& b) { return SumAll(Mul(MeanTime(a), b)); },
      {2, 3, 2}, {2, 2});
  add_case(
      "IndexSelect",
      [](Variable& a, Variable& b) {
        return Add(IndexSelect(a, 2), IndexSelect(b, 0));
      },
      {4}, {2});
  add_case(
      "BCEWithLogits",
      [](Variable& a, Variable& b) {
        Variable targets = Variable::Constant(
            Tensor::FromVector({4}, {1.0f, 0.0f, 0.3f, 0.8f}));
        return Add(BCEWithLogits(a, targets), SumAll(Mul(b, b)));
      },
      {4}, {2});
  add_case(
      "AvgPool",
      [](Variable& a, Variable& b) {
        return SumAll(Mul(AvgPool1D(a, 3), b));
      },
      {2, 5, 2}, {2, 5, 2});
  add_case(
      "MaxPool",
      [](Variable& a, Variable& b) {
        return SumAll(Mul(MaxPool1D(a, 3), b));
      },
      {2, 5, 2}, {2, 5, 2});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradCheckTest, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<GradCase>& info) {
      return info.param.name;
    });

TEST(GradCheckExtra, Conv1DWeightsInputAndBias) {
  Rng rng(13);
  Variable x = Variable::Parameter(Tensor::Randn({2, 5, 3}, &rng, 0.5f));
  Variable w = Variable::Parameter(Tensor::Randn({2, 3, 3}, &rng, 0.5f));
  Variable b = Variable::Parameter(Tensor::Randn({2}, &rng, 0.5f));
  for (int64_t dilation : {1, 2}) {
    ExpectGradientsClose(
        [&]() {
          Variable y = Conv1D(x, w, b, dilation);
          return SumAll(Mul(y, y));
        },
        {&x, &w, &b});
  }
}

TEST(GradCheckExtra, Conv1DNoBias) {
  Rng rng(14);
  Variable x = Variable::Parameter(Tensor::Randn({1, 4, 2}, &rng, 0.5f));
  Variable w = Variable::Parameter(Tensor::Randn({3, 3, 2}, &rng, 0.5f));
  ExpectGradientsClose(
      [&]() { return SumAll(Conv1D(x, w, Variable(), 1)); }, {&x, &w});
}

TEST(GradCheckExtra, LayerNormAllInputs) {
  Rng rng(15);
  Variable x = Variable::Parameter(Tensor::Randn({3, 4}, &rng));
  Variable gamma = Variable::Parameter(Tensor::RandUniform({4}, &rng, 0.5f, 1.5f));
  Variable beta = Variable::Parameter(Tensor::Randn({4}, &rng, 0.1f));
  Variable coeff = Variable::Constant(Tensor::Randn({3, 4}, &rng));
  ExpectGradientsClose(
      [&]() { return SumAll(Mul(LayerNorm(x, gamma, beta), coeff)); },
      {&x, &gamma, &beta}, /*eps=*/1e-2f, /*rtol=*/3e-2f, /*atol=*/3e-3f);
}

TEST(GradCheckExtra, EmbeddingLookup) {
  Rng rng(16);
  Variable w = Variable::Parameter(Tensor::Randn({5, 3}, &rng, 0.5f));
  std::vector<int64_t> ids = {0, 2, 4, 2};
  Variable coeff = Variable::Constant(Tensor::Randn({2, 2, 3}, &rng));
  Variable dummy = Variable::Parameter(Tensor::Randn({2}, &rng));
  ExpectGradientsClose(
      [&]() {
        Variable e = EmbeddingLookup(w, ids, 2, 2);
        return Add(SumAll(Mul(e, coeff)), SumAll(Mul(dummy, dummy)));
      },
      {&w, &dummy});
}

TEST(GradCheckExtra, LstmAllInputs) {
  Rng rng(17);
  Variable x = Variable::Parameter(Tensor::Randn({2, 3, 3}, &rng, 0.8f));
  Variable w_x = Variable::Parameter(Tensor::Randn({3, 8}, &rng, 0.5f));
  Variable w_h = Variable::Parameter(Tensor::Randn({2, 8}, &rng, 0.5f));
  Variable bias = Variable::Parameter(Tensor::Randn({8}, &rng, 0.5f));
  Variable coeff = Variable::Constant(Tensor::Randn({2, 3, 2}, &rng));
  ExpectGradientsClose(
      [&]() { return SumAll(Mul(Lstm(x, w_x, w_h, bias), coeff)); },
      {&x, &w_x, &w_h, &bias}, /*eps=*/1e-2f, /*rtol=*/3e-2f,
      /*atol=*/3e-3f);
}

}  // namespace
}  // namespace ag
}  // namespace alt
