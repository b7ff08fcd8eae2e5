// Coverage for the deployment export path and mixed-scenario batching
// behavior of the EnqueuePredict path.

#include <cstdio>
#include <filesystem>
#include <future>

#include "gtest/gtest.h"
#include "src/data/synthetic.h"
#include "src/obs/metrics.h"
#include "src/serving/model_server.h"
#include "src/serving/model_store.h"
#include "src/serving/serving_client.h"

namespace alt {
namespace serving {
namespace {

std::unique_ptr<models::BaseModel> TinyModel(uint64_t seed) {
  Rng rng(seed);
  models::ModelConfig config = models::ModelConfig::Light(
      models::EncoderKind::kLstm, 4, 5, 8);
  config.encoder_layers = 1;
  auto model = models::BuildBaseModel(config, &rng);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

data::Batch OneSample(uint64_t seed) {
  Rng rng(seed);
  data::Batch batch;
  batch.batch_size = 1;
  batch.seq_len = 5;
  batch.profiles = Tensor::Randn({1, 4}, &rng);
  batch.behaviors = {0, 1, 2, 3, 4};
  batch.labels = Tensor({1, 1});
  return batch;
}

TEST(ExportBundleTest, ExportedBundleServesIdentically) {
  // The export is written from the deployed snapshot, which keeps its fp32
  // weights beside the int8 copy of a quantized deploy.
  obs::MetricsRegistry registry;
  ServingClient client(ServingClient::Options{}, &registry);
  ASSERT_TRUE(client.Deploy("bank", TinyModel(1)).ok());
  DeployOptions quantized;
  quantized.quantize_int8 = true;
  ASSERT_TRUE(client.Deploy("bank_int8", TinyModel(1), quantized).ok());
  const std::string path = ::testing::TempDir() + "/alt_export_test.altm";
  const std::string int8_path =
      ::testing::TempDir() + "/alt_export_test_int8.altm";
  ASSERT_TRUE(client.ExportBundle("bank", path).ok());
  ASSERT_TRUE(client.ExportBundle("bank_int8", int8_path).ok());

  auto reloaded = LoadModelBundleFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  data::Batch probe = OneSample(2);
  auto direct = client.Predict("bank", probe);
  ASSERT_TRUE(direct.ok());
  auto from_bundle = reloaded.value()->PredictProbs(probe);
  EXPECT_FLOAT_EQ(direct.value()[0], from_bundle[0]);
  auto reloaded_int8 = LoadModelBundleFromFile(int8_path);
  ASSERT_TRUE(reloaded_int8.ok()) << reloaded_int8.status().ToString();
  EXPECT_EQ(reloaded_int8.value()->PredictProbs(probe), from_bundle);
  std::remove(path.c_str());
  std::remove(int8_path.c_str());
}

TEST(ExportBundleTest, ExportErrors) {
  obs::MetricsRegistry registry;
  ServingClient client(ServingClient::Options{}, &registry);
  EXPECT_FALSE(client.ExportBundle("ghost", "/tmp/x.altm").ok());
  ASSERT_TRUE(client.Deploy("bank", TinyModel(3)).ok());
  EXPECT_FALSE(
      client.ExportBundle("bank", "/nonexistent/dir/x.altm").ok());
}

TEST(EnqueuePredictTest, MixedScenariosAreRoutedCorrectly) {
  // Two deployed scenarios with different weights; interleaved requests
  // must each be scored by their own model.
  obs::MetricsRegistry registry;
  ServingClient::Options options;
  options.batching.max_batch_size = 4;
  options.batching.max_delay_ms = 5.0;
  ServingClient client(options, &registry);
  ASSERT_TRUE(client.Deploy("a", TinyModel(10)).ok());
  ASSERT_TRUE(client.Deploy("b", TinyModel(777)).ok());

  Rng rng(4);
  Tensor profile = Tensor::Randn({1, 4}, &rng);
  std::vector<int64_t> behavior = {0, 1, 2, 3, 4};
  auto fa = client.EnqueuePredict("a", profile, behavior);
  auto fb = client.EnqueuePredict("b", profile, behavior);
  auto fa2 = client.EnqueuePredict("a", profile, behavior);

  Result<float> ra = fa.get();
  Result<float> rb = fb.get();
  Result<float> ra2 = fa2.get();
  ASSERT_TRUE(ra.ok() && rb.ok() && ra2.ok());
  EXPECT_FLOAT_EQ(ra.value(), ra2.value());
  EXPECT_NE(ra.value(), rb.value());  // Different models, different scores.

  data::Batch probe = OneSample(4);
  probe.profiles = profile;
  probe.behaviors = behavior;
  EXPECT_EQ(ra.value(), client.Predict("a", probe).value()[0]);
  EXPECT_EQ(rb.value(), client.Predict("b", probe).value()[0]);
}

TEST(EnqueuePredictTest, HighVolumeDrainsCompletely) {
  // Private registry: the batch counters must not leak in from other tests
  // in this binary.
  obs::MetricsRegistry registry;
  ServingClient::Options options;
  options.batching.max_batch_size = 16;
  options.batching.max_delay_ms = 1.0;
  ServingClient client(options, &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(5)).ok());
  Rng rng(6);
  std::vector<std::future<Result<float>>> futures;
  for (int i = 0; i < 200; ++i) {
    std::vector<int64_t> behavior(5);
    for (auto& id : behavior) id = rng.UniformInt(0, 7);
    futures.push_back(
        client.EnqueuePredict("s", Tensor::Randn({1, 4}, &rng), behavior));
  }
  int ok_count = 0;
  for (auto& f : futures) {
    if (f.get().ok()) ++ok_count;
  }
  EXPECT_EQ(ok_count, 200);
  client.DrainBatchQueues();
  EXPECT_EQ(client.GetStats().pending_batch_requests, 0);
  // Batching actually happened.
  EXPECT_LT(
      registry.counter_value("serving/batch_predictor/batches_dispatched"),
      200);
  EXPECT_EQ(
      registry.histogram_summary("serving/batch_predictor/batch_size").sum,
      200.0);
}

}  // namespace
}  // namespace serving
}  // namespace alt
