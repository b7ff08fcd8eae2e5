#include "src/nn/lstm.h"

#include "src/nn/init.h"
#include "src/util/logging.h"

namespace alt {
namespace nn {

LstmLayer::LstmLayer(int64_t input_dim, int64_t hidden_dim, Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  w_x_ = ag::Variable::Parameter(
      XavierUniformShaped({input_dim, 4 * hidden_dim}, input_dim,
                          4 * hidden_dim, rng));
  w_h_ = ag::Variable::Parameter(
      XavierUniformShaped({hidden_dim, 4 * hidden_dim}, hidden_dim,
                          4 * hidden_dim, rng));
  Tensor b = Tensor::Zeros({4 * hidden_dim});
  // Forget gate bias = 1 stabilizes early training.
  for (int64_t j = hidden_dim; j < 2 * hidden_dim; ++j) b[j] = 1.0f;
  bias_ = ag::Variable::Parameter(std::move(b));
}

ag::Variable LstmLayer::Forward(const ag::Variable& x) {
  ALT_CHECK_EQ(x.value().ndim(), 3);
  ALT_CHECK_EQ(x.value().size(2), input_dim_);
  return ag::Lstm(x, w_x_, w_h_, bias_);
}

int64_t LstmLayer::Flops(int64_t seq_len) const {
  return ag::LstmFlops(/*batch=*/1, seq_len, input_dim_, hidden_dim_);
}

std::vector<std::pair<std::string, ag::Variable*>>
LstmLayer::LocalParameters() {
  return {{"w_x", &w_x_}, {"w_h", &w_h_}, {"bias", &bias_}};
}

Lstm::Lstm(int64_t input_dim, int64_t hidden_dim, int64_t num_layers,
           Rng* rng)
    : hidden_dim_(hidden_dim) {
  ALT_CHECK_GE(num_layers, 1);
  for (int64_t i = 0; i < num_layers; ++i) {
    layers_.push_back(std::make_unique<LstmLayer>(
        i == 0 ? input_dim : hidden_dim, hidden_dim, rng));
  }
}

ag::Variable Lstm::Forward(const ag::Variable& x) {
  ag::Variable h = x;
  for (auto& layer : layers_) h = layer->Forward(h);
  return h;
}

int64_t Lstm::Flops(int64_t seq_len) const {
  int64_t flops = 0;
  for (const auto& layer : layers_) flops += layer->Flops(seq_len);
  return flops;
}

std::vector<std::pair<std::string, Module*>> Lstm::Children() {
  std::vector<std::pair<std::string, Module*>> out;
  for (size_t i = 0; i < layers_.size(); ++i) {
    out.emplace_back(std::to_string(i), layers_[i].get());
  }
  return out;
}

}  // namespace nn
}  // namespace alt
