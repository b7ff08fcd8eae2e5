#ifndef ALT_SRC_MODELS_MULTI_SEQUENCE_MODEL_H_
#define ALT_SRC_MODELS_MULTI_SEQUENCE_MODEL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/data/dataset.h"
#include "src/models/base_model.h"
#include "src/models/behavior_encoder.h"
#include "src/nn/embedding.h"
#include "src/nn/mlp.h"

namespace alt {
namespace models {

/// A batch carrying several behavior sequences per user (e.g. clicks,
/// purchases, payments) in addition to the profile features.
struct MultiSequenceBatch {
  Tensor profiles;  // [B, profile_dim]
  /// One id matrix per behavior channel, each row-major [B, seq_len].
  std::vector<std::vector<int64_t>> behaviors;
  Tensor labels;  // [B, 1]
  int64_t batch_size = 0;
  int64_t seq_len = 0;
};

/// Builds a MultiSequenceBatch by replicating a single-channel scenario's
/// sequence through `num_channels` deterministic per-channel shuffles
/// (test/bench helper for multi-channel workloads).
MultiSequenceBatch MakeMultiSequenceBatch(const data::ScenarioData& data,
                                          const std::vector<size_t>& indices,
                                          int64_t num_channels,
                                          uint64_t seed);

/// The Sec. III-D observation made concrete: industrial models carry
/// several behavior sequences, so the behavior encoding module is
/// instantiated once per channel and dominates inference cost. Each channel
/// has its own embedding table and encoder copy; channel embeddings are
/// concatenated with the profile embedding before the prediction head.
///
/// This is the motivating workload for the budget-limited NAS: FlopsPerSample
/// grows linearly in the number of channels, so shrinking the encoder pays
/// off `num_channels` times.
class MultiSequenceModel : public nn::Module {
 public:
  /// `encoders` supplies one behavior encoder per channel (size >= 1).
  MultiSequenceModel(ModelConfig config,
                     std::vector<std::unique_ptr<BehaviorEncoder>> encoders,
                     Rng* rng);

  ag::Variable Forward(const MultiSequenceBatch& batch,
                       Rng* dropout_rng = nullptr) const;

  /// Probabilities in the model's current mode, computed under
  /// ag::NoGradGuard (no tape); read-only, like BaseModel::PredictProbs.
  std::vector<float> PredictProbs(const MultiSequenceBatch& batch) const;

  int64_t FlopsPerSample() const;
  int64_t num_channels() const {
    return static_cast<int64_t>(encoders_.size());
  }
  const ModelConfig& config() const { return config_; }

 protected:
  std::vector<std::pair<std::string, Module*>> Children() override;

 private:
  ModelConfig config_;
  std::unique_ptr<nn::Mlp> profile_encoder_;
  std::vector<std::unique_ptr<nn::Embedding>> embeddings_;
  std::vector<std::unique_ptr<BehaviorEncoder>> encoders_;
  std::unique_ptr<nn::Mlp> head_;
};

/// Builds a multi-sequence model with `num_channels` copies of the
/// config's encoder kind (kLstm / kBert).
Result<std::unique_ptr<MultiSequenceModel>> BuildMultiSequenceModel(
    const ModelConfig& config, int64_t num_channels, Rng* rng);

}  // namespace models
}  // namespace alt

#endif  // ALT_SRC_MODELS_MULTI_SEQUENCE_MODEL_H_
