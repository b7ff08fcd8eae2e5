// Eval forwards are row-independent, bit for bit: the probability a model
// gives one row does not depend on the batch that carries it — its size,
// the other rows in it, or their order. The distillation soft-label table
// (train::SoftLabelTable) labels each row once and reuses the label in every
// training batch, so it is exact only because of this property.

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "src/data/synthetic.h"
#include "src/models/base_model.h"
#include "src/nas/arch.h"
#include "src/nas/nas_search.h"

namespace alt {
namespace {

constexpr int64_t kProfileDim = 6;
constexpr int64_t kSeqLen = 8;
constexpr int64_t kVocab = 12;

data::ScenarioData Scenario() {
  data::SyntheticConfig config;
  config.num_scenarios = 1;
  config.profile_dim = kProfileDim;
  config.seq_len = kSeqLen;
  config.vocab_size = kVocab;
  config.scenario_sizes = {150};
  config.seed = 23;
  return data::SyntheticGenerator(config).GenerateScenario(0);
}

std::unique_ptr<models::BaseModel> HeavyModel(models::EncoderKind kind) {
  models::ModelConfig config =
      models::ModelConfig::Heavy(kind, kProfileDim, kSeqLen, kVocab);
  Rng rng(11);
  auto model = models::BuildBaseModel(config, &rng);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

/// A derived encoder covering every op family of the search space.
std::unique_ptr<models::BaseModel> NasModel() {
  models::ModelConfig config = models::ModelConfig::Light(
      models::EncoderKind::kLstm, kProfileDim, kSeqLen, kVocab);
  config.hidden_dim = 6;
  config.num_heads = 3;
  nas::Architecture arch;
  arch.dim = config.hidden_dim;
  arch.layers.push_back({0, {nas::OpType::kConv, 3}, {false}});
  arch.layers.push_back({1, {nas::OpType::kDilatedConv, 5}, {true, false}});
  arch.layers.push_back({2, {nas::OpType::kLstm, 0}, {false, true, false}});
  arch.layers.push_back(
      {3, {nas::OpType::kAvgPool, 3}, {false, false, true, false}});
  arch.layers.push_back(
      {4, {nas::OpType::kAttention, 0}, {true, false, false, false, true}});
  arch.layers.push_back({5,
                         {nas::OpType::kMaxPool, 3},
                         {false, false, false, true, false, false}});
  config.encoder = models::EncoderKind::kNas;
  config.nas_arch = arch.ToJson();
  Rng rng(12);
  auto model = nas::BuildModel(config, &rng);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

/// PredictProbs over `rows` of `dataset`, `chunk` rows per batch.
std::vector<float> PredictRows(models::BaseModel* model,
                               const data::ScenarioData& dataset,
                               const std::vector<size_t>& rows,
                               size_t chunk) {
  std::vector<float> out;
  for (size_t start = 0; start < rows.size(); start += chunk) {
    const size_t end = std::min(rows.size(), start + chunk);
    const std::vector<size_t> part(rows.begin() + static_cast<long>(start),
                                   rows.begin() + static_cast<long>(end));
    const std::vector<float> probs =
        model->PredictProbs(data::MakeBatch(dataset, part));
    out.insert(out.end(), probs.begin(), probs.end());
  }
  return out;
}

void ExpectRowIndependent(models::BaseModel* model) {
  const data::ScenarioData dataset = Scenario();
  const size_t n = static_cast<size_t>(dataset.num_samples());
  std::vector<size_t> in_order(n);
  for (size_t i = 0; i < n; ++i) in_order[i] = i;
  const std::vector<float> whole = PredictRows(model, dataset, in_order, n);
  ASSERT_EQ(whole.size(), n);

  for (size_t chunk : {1, 7, 64}) {
    const std::vector<float> split =
        PredictRows(model, dataset, in_order, chunk);
    ASSERT_EQ(split.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<uint32_t>(split[i]),
                std::bit_cast<uint32_t>(whole[i]))
          << "row " << i << " in batches of " << chunk;
    }
  }

  std::vector<size_t> shuffled = in_order;
  Rng rng(29);
  rng.Shuffle(&shuffled);
  for (size_t chunk : {n, size_t{7}}) {
    const std::vector<float> permuted =
        PredictRows(model, dataset, shuffled, chunk);
    ASSERT_EQ(permuted.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<uint32_t>(permuted[i]),
                std::bit_cast<uint32_t>(whole[shuffled[i]]))
          << "row " << shuffled[i] << " shuffled, batches of " << chunk;
    }
  }
}

TEST(RowIndependenceTest, HeavyLstm) {
  auto model = HeavyModel(models::EncoderKind::kLstm);
  ASSERT_NE(model, nullptr);
  ExpectRowIndependent(model.get());
}

TEST(RowIndependenceTest, HeavyBert) {
  auto model = HeavyModel(models::EncoderKind::kBert);
  ASSERT_NE(model, nullptr);
  ExpectRowIndependent(model.get());
}

TEST(RowIndependenceTest, NasDerived) {
  auto model = NasModel();
  ASSERT_NE(model, nullptr);
  ExpectRowIndependent(model.get());
}

}  // namespace
}  // namespace alt
