// Tests of the fused whole-sequence LSTM op (ag::Lstm): outputs and all four
// gradients against the per-timestep op composition it replaced, bit
// identity across compute thread counts, and the single graph node it
// records.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "src/autograd/ops.h"
#include "src/nn/lstm.h"
#include "src/util/parallel_for.h"
#include "src/util/rng.h"

namespace alt {
namespace {

/// The oracle: one LSTM layer as a chain of elementary ops per timestep
/// (two matmuls, bias, four gate slices and nonlinearities, the cell
/// update), exactly as nn::LstmLayer::Forward used to build it.
ag::Variable ComposedLstm(const ag::Variable& x, const ag::Variable& w_x,
                          const ag::Variable& w_h, const ag::Variable& bias) {
  const int64_t batch = x.value().size(0);
  const int64_t seq = x.value().size(1);
  const int64_t h = w_h.value().size(0);
  ag::Variable h_prev = ag::Variable::Constant(Tensor::Zeros({batch, h}));
  ag::Variable c_prev = ag::Variable::Constant(Tensor::Zeros({batch, h}));
  std::vector<ag::Variable> outputs;
  for (int64_t t = 0; t < seq; ++t) {
    ag::Variable x_t = ag::SelectTime(x, t);
    ag::Variable gates = ag::AddBias(
        ag::Add(ag::MatMul(x_t, w_x), ag::MatMul(h_prev, w_h)), bias);
    ag::Variable i_g = ag::Sigmoid(ag::SliceLastDim(gates, 0, h));
    ag::Variable f_g = ag::Sigmoid(ag::SliceLastDim(gates, h, h));
    ag::Variable g_g = ag::Tanh(ag::SliceLastDim(gates, 2 * h, h));
    ag::Variable o_g = ag::Sigmoid(ag::SliceLastDim(gates, 3 * h, h));
    ag::Variable c_t = ag::Add(ag::Mul(f_g, c_prev), ag::Mul(i_g, g_g));
    ag::Variable h_t = ag::Mul(o_g, ag::Tanh(c_t));
    outputs.push_back(h_t);
    h_prev = h_t;
    c_prev = c_t;
  }
  return ag::StackTime(outputs);
}

Tensor Uniform(std::vector<int64_t> shape, double scale, Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng->Uniform(-scale, scale));
  }
  return t;
}

struct LstmInputs {
  Tensor x, w_x, w_h, bias, coeff;
};

LstmInputs MakeInputs(int64_t batch, int64_t seq, int64_t in, int64_t hidden,
                      uint64_t seed) {
  Rng rng(seed);
  LstmInputs inputs;
  inputs.x = Uniform({batch, seq, in}, 1.5, &rng);
  inputs.w_x = Uniform({in, 4 * hidden}, 0.6, &rng);
  inputs.w_h = Uniform({hidden, 4 * hidden}, 0.6, &rng);
  inputs.bias = Uniform({4 * hidden}, 0.5, &rng);
  inputs.coeff = Uniform({batch, seq, hidden}, 1.0, &rng);
  return inputs;
}

/// The output and the gradients of x, w_x, w_h and bias for the loss
/// sum(out * coeff).
std::vector<Tensor> RunLstm(const LstmInputs& in, bool fused) {
  ag::Variable x = ag::Variable::Parameter(in.x);
  ag::Variable w_x = ag::Variable::Parameter(in.w_x);
  ag::Variable w_h = ag::Variable::Parameter(in.w_h);
  ag::Variable bias = ag::Variable::Parameter(in.bias);
  ag::Variable out = fused ? ag::Lstm(x, w_x, w_h, bias)
                           : ComposedLstm(x, w_x, w_h, bias);
  ag::SumAll(ag::Mul(out, ag::Variable::Constant(in.coeff))).Backward();
  return {out.value(), x.grad(), w_x.grad(), w_h.grad(), bias.grad()};
}

TEST(LstmOpTest, MatchesPerTimestepComposition) {
  const char* names[] = {"out", "dx", "dw_x", "dw_h", "dbias"};
  uint64_t seed = 1;
  for (int64_t batch : {1, 64}) {
    for (int64_t seq : {1, 16}) {
      for (int64_t hidden : {8, 15}) {
        for (int64_t in : {hidden, int64_t{5}}) {
          const LstmInputs inputs = MakeInputs(batch, seq, in, hidden, ++seed);
          const std::vector<Tensor> fused = RunLstm(inputs, true);
          const std::vector<Tensor> oracle = RunLstm(inputs, false);
          for (size_t k = 0; k < fused.size(); ++k) {
            ASSERT_TRUE(fused[k].SameShape(oracle[k])) << names[k];
            // Both sides agree to fp32 rounding; the weight gradients sum
            // over every row, so the bound scales with the largest entry.
            float scale = 1.0f;
            for (int64_t i = 0; i < oracle[k].numel(); ++i) {
              scale = std::max(scale, std::fabs(oracle[k][i]));
            }
            for (int64_t i = 0; i < oracle[k].numel(); ++i) {
              ASSERT_NEAR(fused[k][i], oracle[k][i], 2e-5f * scale)
                  << names[k] << " B=" << batch << " T=" << seq
                  << " H=" << hidden << " in=" << in << " at " << i;
            }
          }
        }
      }
    }
  }
}

TEST(LstmOpTest, BitIdenticalAcrossThreadCounts) {
  const LstmInputs inputs = MakeInputs(64, 16, 15, 15, 99);
  SetComputeThreads(1);
  const std::vector<Tensor> one = RunLstm(inputs, true);
  SetComputeThreads(4);
  const std::vector<Tensor> four = RunLstm(inputs, true);
  SetComputeThreads(0);
  for (size_t k = 0; k < one.size(); ++k) {
    ASSERT_EQ(one[k].numel(), four[k].numel());
    EXPECT_EQ(std::memcmp(one[k].data(), four[k].data(),
                          static_cast<size_t>(one[k].numel()) * sizeof(float)),
              0)
        << "tensor " << k;
  }
}

TEST(LstmOpTest, LayerRecordsOneNodeWithItsFlops) {
  Rng rng(7);
  nn::LstmLayer layer(5, 8, &rng);
  const int64_t batch = 3;
  const int64_t seq = 4;
  ag::Variable x =
      ag::Variable::Constant(Uniform({batch, seq, 5}, 1.0, &rng));
  ag::Variable out = layer.Forward(x);
  ASSERT_EQ(out.value().ndim(), 3);
  EXPECT_EQ(out.value().size(2), 8);
  EXPECT_STREQ(out.node()->op_name, "lstm");
  EXPECT_EQ(out.node()->parents.size(), 4u);
  EXPECT_EQ(out.node()->flops, batch * layer.Flops(seq));
  EXPECT_TRUE(static_cast<bool>(out.node()->backward_fn));

  // With no input that needs a gradient, the node keeps no backward state.
  ag::Variable frozen = ag::Lstm(
      x, ag::Variable::Constant(Uniform({5, 32}, 0.5, &rng)),
      ag::Variable::Constant(Uniform({8, 32}, 0.5, &rng)),
      ag::Variable::Constant(Tensor::Zeros({32})));
  EXPECT_FALSE(static_cast<bool>(frozen.node()->backward_fn));
}

}  // namespace
}  // namespace alt
