#include "perfbench/src/zoo.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using alt::Rng;
using alt::Status;
using alt::Tensor;
namespace data = alt::data;
namespace models = alt::models;

namespace {

std::unique_ptr<models::BaseModel> BuildScenarioModel(uint64_t seed) {
  Rng rng(seed);
  models::ModelConfig config = models::ModelConfig::Light(
      models::EncoderKind::kLstm, Zoo::kProfileDim, Zoo::kSeqLen,
      Zoo::kVocab);
  config.encoder_layers = 1;
  auto model = models::BuildBaseModel(config, &rng);
  if (!model.ok()) return nullptr;
  return std::move(model).value();
}

data::Batch SingleInput(Rng* rng) {
  data::Batch batch;
  batch.batch_size = 1;
  batch.seq_len = Zoo::kSeqLen;
  batch.profiles = Tensor::Randn({1, Zoo::kProfileDim}, rng);
  batch.labels = Tensor::Zeros({1, 1});
  for (int64_t t = 0; t < Zoo::kSeqLen; ++t) {
    batch.behaviors.push_back(rng->UniformInt(0, Zoo::kVocab - 1));
  }
  return batch;
}

}  // namespace

Zoo::Zoo(uint64_t seed) : seed_(seed) {
  double total = 0.0;
  for (int i = 0; i < kScenarios; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), 1.07);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
  Rng rng(seed * 7919 + 11);
  for (int i = 0; i < kInputs; ++i) inputs_.push_back(SingleInput(&rng));
}

std::string Zoo::Name(int scenario) {
  return "zoo_" + std::to_string(scenario);
}

int Zoo::SampleScenario(Rng* rng) const {
  const double u = rng->Uniform(0.0, 1.0);
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return std::min(static_cast<int>(it - zipf_cdf_.begin()), kScenarios - 1);
}

data::Batch Zoo::StackedInputs(int rows) const {
  data::Batch batch;
  batch.batch_size = rows;
  batch.seq_len = kSeqLen;
  batch.profiles = Tensor::Zeros({rows, kProfileDim});
  batch.labels = Tensor::Zeros({rows, 1});
  for (int r = 0; r < rows; ++r) {
    const data::Batch& in = inputs_[r % kInputs];
    std::copy(in.profiles.data(), in.profiles.data() + kProfileDim,
              batch.profiles.data() + r * kProfileDim);
    batch.behaviors.insert(batch.behaviors.end(), in.behaviors.begin(),
                           in.behaviors.end());
  }
  return batch;
}

Status Zoo::Deploy(alt::serving::ServingClient* client) {
  const data::Batch all = StackedInputs(kInputs);
  reference_.clear();
  expected_.clear();
  for (int s = 0; s < kScenarios; ++s) {
    std::unique_ptr<models::BaseModel> model =
        BuildScenarioModel(seed_ * 1000003 + static_cast<uint64_t>(s));
    if (model == nullptr) return Status::Internal("cannot build zoo model");
    Rng clone_rng(static_cast<uint64_t>(s));
    auto clone = models::CloneBaseModel(model.get(), &clone_rng);
    if (!clone.ok()) return clone.status();
    alt::serving::DeployOptions options;
    options.hot = Hot(s);
    const Status status = client->Deploy(Name(s), std::move(model), options);
    if (!status.ok()) return status;
    reference_.push_back(std::move(clone).value());
    expected_.push_back(reference_.back()->PredictProbs(all));
  }
  return Status::OK();
}

bool Zoo::Matches(int scenario, int input, float score) const {
  return std::fabs(score - expected_[scenario][input]) <= kTolerance;
}

std::unique_ptr<models::BaseModel> Zoo::CloneModel(int scenario) const {
  Rng rng(static_cast<uint64_t>(scenario));
  auto clone = models::CloneBaseModel(reference_[scenario].get(), &rng);
  if (!clone.ok()) return nullptr;
  return std::move(clone).value();
}

}  // namespace perfbench
