// The serving workloads' scenario zoo: copies of the light LSTM that
// bench/bench_serving_scale deploys, a seeded pool of single-sample inputs,
// and the expected score of every (scenario, input) pair.

#ifndef PERFBENCH_SRC_ZOO_H_
#define PERFBENCH_SRC_ZOO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/models/base_model.h"
#include "src/serving/serving_client.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace perfbench {

class Zoo {
 public:
  /// Serving shape of bench_serving_scale: profile 4, seq 5, vocab 8, one
  /// LSTM layer.
  static constexpr int64_t kProfileDim = 4;
  static constexpr int64_t kSeqLen = 5;
  static constexpr int64_t kVocab = 8;
  static constexpr int kScenarios = 200;
  /// Zipf-head scenarios deployed hot (replication 3 instead of 2).
  static constexpr int kHot = 4;
  static constexpr int kInputs = 256;
  /// Largest |served - expected| accepted. The expected score comes from a
  /// batch-of-all-inputs PredictProbs on a clone, the served one from a
  /// batch of 1 (direct) or a micro-batch; SIMD blocking may change the
  /// last bits but nothing else.
  static constexpr float kTolerance = 1e-5f;

  /// Builds the models and the input pool from `seed`.
  explicit Zoo(uint64_t seed);

  /// Deploys every scenario into `client` and computes the expected scores
  /// from clones of the deployed weights.
  alt::Status Deploy(alt::serving::ServingClient* client);

  static std::string Name(int scenario);
  static bool Hot(int scenario) { return scenario < kHot; }
  /// Zipf(1.07) scenario rank.
  int SampleScenario(alt::Rng* rng) const;

  const alt::data::Batch& Input(int input) const { return inputs_[input]; }
  const alt::Tensor& Profile(int input) const {
    return inputs_[input].profiles;
  }
  const std::vector<int64_t>& Behavior(int input) const {
    return inputs_[input].behaviors;
  }
  bool Matches(int scenario, int input, float score) const;

  /// A fresh copy of the scenario's deployed weights (for redeploys, which
  /// must leave every expected score valid).
  std::unique_ptr<alt::models::BaseModel> CloneModel(int scenario) const;
  alt::models::BaseModel* Reference(int scenario) const {
    return reference_[scenario].get();
  }
  /// `rows` inputs stacked into one batch (the ladder's batch-32 shape).
  alt::data::Batch StackedInputs(int rows) const;

 private:
  uint64_t seed_;
  std::vector<double> zipf_cdf_;
  std::vector<alt::data::Batch> inputs_;
  std::vector<std::unique_ptr<alt::models::BaseModel>> reference_;
  std::vector<std::vector<float>> expected_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ZOO_H_
