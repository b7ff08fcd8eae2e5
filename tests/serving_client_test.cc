// Tests of the ServingClient facade — the public serving API over the
// sharded plane — including the elastic lifecycle surface (warm re-join,
// runtime AddShard, the shard-state HealthReport).

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/metrics.h"
#include "src/resilience/fault_injection.h"
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

ServingClient::Options SmallTopology(int shards, int replication) {
  ServingClient::Options options;
  options.num_shards = shards;
  options.replication = replication;
  options.vnodes_per_shard = 64;
  options.batching.max_batch_size = 4;
  options.batching.max_delay_ms = 1.0;
  return options;
}

TEST(ServingClientTest, DeployPredictUndeployRoundTrip) {
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(4, 2), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(1)).ok());
  EXPECT_TRUE(client.IsDeployed("s"));
  EXPECT_EQ(client.Scenarios(), std::vector<std::string>{"s"});

  const data::Batch batch = OneSample(2);
  auto scores = client.Predict("s", batch);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  EXPECT_EQ(scores.value().size(), static_cast<size_t>(batch.batch_size));

  auto latency = client.GetLatencyStats("s");
  ASSERT_TRUE(latency.ok());
  EXPECT_GE(latency.value().num_requests, 1);
  EXPECT_TRUE(client.FlopsPerSample("s").ok());

  ASSERT_TRUE(client.Undeploy("s").ok());
  EXPECT_FALSE(client.IsDeployed("s"));
  EXPECT_EQ(client.Predict("s", batch).status().code(),
            StatusCode::kNotFound);
}

TEST(ServingClientTest, MalformedRequestsAreRefusedNotFatal) {
  // A request that does not fit the deployed model's input contract comes
  // back as InvalidArgument instead of aborting the process in the forward
  // pass, and it does not count against any shard: the scenario keeps
  // serving good requests on every shard.
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(2, 2), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(11)).ok());

  data::Batch id_out_of_vocab = OneSample(12);
  id_out_of_vocab.behaviors = {0, 1, 2, 3, 8};  // The vocabulary is 8.
  data::Batch negative_id = OneSample(12);
  negative_id.behaviors = {0, -1, 2, 3, 4};
  data::Batch short_sequence = OneSample(13);
  short_sequence.seq_len = 4;
  short_sequence.behaviors = {0, 1, 2, 3};
  data::Batch narrow_profile = OneSample(14);
  Rng rng(15);
  narrow_profile.profiles = Tensor::Randn({1, 3}, &rng);
  for (const data::Batch& bad :
       {id_out_of_vocab, negative_id, short_sequence, narrow_profile}) {
    for (int repeat = 0; repeat < 8; ++repeat) {
      EXPECT_EQ(client.Predict("s", bad).status().code(),
                StatusCode::kInvalidArgument);
    }
  }

  auto good = client.Predict("s", OneSample(16));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good.value().size(), 1u);
  EXPECT_EQ(client.GetStats().live_shards, 2);
  // Malformed traffic is counted apart and burns none of the SLO budget.
  EXPECT_EQ(registry.counter_value("serving/request/invalid/s"), 32);
  const auto slo = client.slo()->Snapshot();
  ASSERT_EQ(slo.count("s"), 1u);
  EXPECT_EQ(slo.at("s").bad, 0);
  EXPECT_EQ(slo.at("s").total, 1);
}

TEST(ServingClientTest, UnknownScenariosLeaveNoPerNameState) {
  // A stream of made-up scenario names is counted in one counter: it
  // grows no per-name histogram and no SLO ring, so /healthz's burning
  // list cannot fill with them.
  obs::MetricsRegistry registry;
  ServingClient::Options options = SmallTopology(2, 1);
  options.trace.sample_rate = 1.0;
  ServingClient client(options, &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(41)).ok());
  const data::Batch batch = OneSample(42);
  ASSERT_TRUE(client.Predict("s", batch).ok());
  const auto histogram_names = [&registry] {
    std::set<std::string> names;
    for (const auto& [name, buckets] : registry.TakeSnapshot().histograms) {
      names.insert(name);
    }
    return names;
  };
  const std::set<std::string> histograms = histogram_names();
  const std::vector<std::string> burning = client.slo()->Burning();
  const size_t slo_scenarios = client.slo()->Snapshot().size();

  constexpr int kUnknown = 1000;
  for (int i = 0; i < kUnknown; ++i) {
    EXPECT_EQ(client.Predict("made_up_" + std::to_string(i), batch)
                  .status()
                  .code(),
              StatusCode::kNotFound);
  }
  EXPECT_EQ(histogram_names(), histograms);
  EXPECT_EQ(client.slo()->Burning(), burning);
  EXPECT_EQ(client.slo()->Snapshot().size(), slo_scenarios);
  EXPECT_EQ(registry.counter_value("serving/request/not_found"), kUnknown);
}

TEST(ServingClientTest, SingleShardDefaultMatchesClassicServing) {
  obs::MetricsRegistry registry;
  ServingClient client(ServingClient::Options{}, &registry);
  EXPECT_EQ(client.ShardIds(), std::vector<std::string>{"shard-0"});
  ASSERT_TRUE(client.Deploy("s", TinyModel(3)).ok());
  const data::Batch batch = OneSample(4);
  EXPECT_TRUE(client.Predict("s", batch).ok());
  ServingClient::Stats stats = client.GetStats();
  EXPECT_EQ(stats.num_shards, 1);
  EXPECT_EQ(stats.live_shards, 1);
  EXPECT_GE(stats.requests_served, 1);
  EXPECT_EQ(stats.pending_batch_requests, 0);
}

TEST(ServingClientTest, EnqueuePredictCoalescesAndMatchesSyncPath) {
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(2, 1), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(5)).ok());
  // The owner's dispatcher is parked while the requests queue, so they
  // leave as coalesced runs of max_batch_size (4).
  shard::WorkerShard* owner =
      client.coordinator()->shard(client.coordinator()->ReplicasOf("s")[0]);
  owner->PauseDispatchForTesting(true);

  Rng rng(6);
  std::vector<Tensor> profiles;
  std::vector<std::future<Result<float>>> futures;
  const std::vector<int64_t> behavior = {0, 1, 2, 3, 4};
  for (int i = 0; i < 8; ++i) {
    profiles.push_back(Tensor::Randn({1, 4}, &rng));
    futures.push_back(client.EnqueuePredict("s", profiles.back(), behavior));
  }
  owner->PauseDispatchForTesting(false);
  for (int i = 0; i < 8; ++i) {
    Result<float> result = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    data::Batch one = OneSample(7);
    one.profiles = profiles[static_cast<size_t>(i)];
    one.behaviors = behavior;
    auto direct = client.Predict("s", one);
    ASSERT_TRUE(direct.ok());
    // Rows are independent (bit for bit), so batching changes no score.
    EXPECT_EQ(result.value(), direct.value()[0]);
  }
  client.DrainBatchQueues();
  EXPECT_EQ(client.GetStats().pending_batch_requests, 0);
  EXPECT_EQ(
      registry.counter_value("serving/batch_predictor/batches_dispatched"), 2);
}

TEST(ServingClientTest, EnqueuePredictUnknownScenarioIsNotFound) {
  // An unknown scenario routes like Predict and resolves NotFound, also
  // once a shard has joined under an id not of the form "shard-N".
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(2, 1), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(21)).ok());
  ASSERT_TRUE(client.AddShard("edge-a").ok());
  Rng rng(22);
  for (const std::string scenario : {"unknown-0", "unknown-1", "unknown-2"}) {
    Result<float> result =
        client.EnqueuePredict(scenario, Tensor::Randn({1, 4}, &rng),
                              {0, 1, 2, 3, 4})
            .get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  }
}

TEST(ServingClientTest, PoisonRequestFailsAloneOnBatchedPath) {
  // One malformed request in a coalesced burst is refused on its own; the
  // other fifteen ride the same engine call and score exactly as the sync
  // path does. A malformed request is not a shard failure: no failover,
  // and the shard breaker stays closed.
  obs::MetricsRegistry registry;
  ServingClient::Options options = SmallTopology(2, 2);
  options.batching.max_batch_size = 16;
  ServingClient client(options, &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(23)).ok());
  const std::string owner = client.coordinator()->ReplicasOf("s").front();
  client.coordinator()->shard(owner)->PauseDispatchForTesting(true);

  constexpr int kPoison = 6;
  std::vector<data::Batch> requests;
  std::vector<std::future<Result<float>>> futures;
  for (int i = 0; i < 16; ++i) {
    data::Batch request = OneSample(100 + static_cast<uint64_t>(i));
    if (i == kPoison) request.behaviors = {0, 1, 2, 3, 8};  // Vocabulary 8.
    requests.push_back(request);
    futures.push_back(
        client.EnqueuePredict("s", request.profiles, request.behaviors));
  }
  client.coordinator()->shard(owner)->PauseDispatchForTesting(false);

  for (int i = 0; i < 16; ++i) {
    Result<float> result = futures[static_cast<size_t>(i)].get();
    if (i == kPoison) {
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
    auto direct = client.Predict("s", requests[static_cast<size_t>(i)]);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(result.value(), direct.value()[0]) << i;
  }
  // All sixteen shared one coalesced engine call.
  EXPECT_EQ(
      registry.counter_value("serving/batch_predictor/batches_dispatched"), 1);
  EXPECT_EQ(registry.counter_value("serving/coordinator/failovers"), 0);
  EXPECT_EQ(client.BreakerStates().at("shard:" + owner),
            resilience::BreakerState::kClosed);
  EXPECT_EQ(client.NumLiveShards(), 2);
}

TEST(ServingClientTest, CoalescedEngineFailureChargesShardOnce) {
  // One failed engine call is one shard-health signal, however many rows
  // rode in it: sixteen coalesced rows failing together charge the owner's
  // breaker (threshold 3) once and count one failover, so the healthy owner
  // stays in the ring, and every row is then served by the other replica.
  resilience::FaultInjector& faults = resilience::FaultInjector::Global();
  faults.Reset();
  obs::MetricsRegistry registry;
  ServingClient::Options options = SmallTopology(2, 2);
  options.batching.max_batch_size = 16;
  ServingClient client(options, &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(29)).ok());
  const std::vector<std::string> group = client.coordinator()->ReplicasOf("s");
  ASSERT_EQ(group.size(), 2u);
  shard::WorkerShard* owner = client.coordinator()->shard(group[0]);
  shard::WorkerShard* backup = client.coordinator()->shard(group[1]);
  owner->PauseDispatchForTesting(true);
  backup->PauseDispatchForTesting(true);

  std::vector<data::Batch> requests;
  std::vector<std::future<Result<float>>> futures;
  for (int i = 0; i < 16; ++i) {
    requests.push_back(OneSample(300 + static_cast<uint64_t>(i)));
    futures.push_back(client.EnqueuePredict("s", requests.back().profiles,
                                            requests.back().behaviors));
  }
  resilience::FaultRule rule;
  rule.every_nth = 1;  // Every engine call fails while armed.
  faults.Arm("serving/predict", rule);
  owner->PauseDispatchForTesting(false);
  // The owner's one coalesced call fails; its rows fail over onto the
  // paused backup. Disarm once they are all queued there.
  while (backup->QueueDepth() < 16) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  faults.Reset();
  backup->PauseDispatchForTesting(false);

  for (int i = 0; i < 16; ++i) {
    Result<float> result = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
    auto direct = client.Predict("s", requests[static_cast<size_t>(i)]);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(result.value(), direct.value()[0]) << i;
  }
  // One failed call on the owner, one served call on the backup.
  EXPECT_EQ(
      registry.counter_value("serving/batch_predictor/batches_dispatched"), 2);
  EXPECT_EQ(registry.counter_value("serving/coordinator/failovers"), 1);
  EXPECT_EQ(client.BreakerStates().at("shard:" + group[0]),
            resilience::BreakerState::kClosed);
  EXPECT_EQ(registry.counter_value("serving/rebalance_events"), 0);
  EXPECT_EQ(client.NumLiveShards(), 2);
}

TEST(ServingClientTest, ShardDeathFailsBatchRequestsDistinctly) {
  // Satellite contract: a shard disappearing mid-flight fails the pending
  // batch requests with kUnavailable (not a generic error) and bumps the
  // serving/shard_unavailable counter — with no replica left to absorb.
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(1, 1), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(8)).ok());
  ASSERT_TRUE(client.KillShard("shard-0").ok());

  Rng rng(9);
  auto future =
      client.EnqueuePredict("s", Tensor::Randn({1, 4}, &rng), {0, 1, 2, 3, 4});
  Result<float> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(registry.counter_value("serving/shard_unavailable"), 1);
  EXPECT_EQ(client.NumLiveShards(), 0);
}

TEST(ServingClientTest, ShardDeathWithReplicasLosesNoBatchRequests) {
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(3, 2), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(10)).ok());
  const std::string owner = client.coordinator()->ReplicasOf("s").front();
  ASSERT_TRUE(client.KillShard(owner).ok());

  Rng rng(11);
  std::vector<std::future<Result<float>>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(client.EnqueuePredict("s", Tensor::Randn({1, 4}, &rng),
                                            {0, 1, 2, 3, 4}));
  }
  for (auto& future : futures) {
    Result<float> result = future.get();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_GE(registry.counter_value("serving/rebalance_events"), 1);
  EXPECT_EQ(client.NumLiveShards(), 2);
  EXPECT_EQ(registry.counter_value("serving/shard_unavailable"), 0);
}

TEST(ServingClientTest, ResilienceDegradesUnknownScenarios) {
  obs::MetricsRegistry registry;
  ServingClient::Options options = SmallTopology(2, 1);
  options.enable_resilience = true;
  options.resilience.fallback_scenario = "f0";
  options.resilience.default_scenario = "f0";
  ServingClient client(options, &registry);
  ASSERT_TRUE(client.DeployEverywhere("f0", TinyModel(12)).ok());

  const data::Batch batch = OneSample(13);
  // Unknown scenario: ring-routed, answered by the engine's f0 default.
  auto scores = client.Predict("brand_new_scenario", batch);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  auto states = client.BreakerStates();
  EXPECT_EQ(states.count("shard:shard-0"), 1u);
  EXPECT_EQ(states.count("shard:shard-1"), 1u);
}

TEST(ServingClientTest, EnableResilienceWhileServing) {
  // Turning resilience on (and re-tuning it) races no in-flight request:
  // each Predict runs under the one policy it read.
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(2, 2), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(21)).ok());
  const data::Batch batch = OneSample(22);
  const std::vector<float> expected = client.Predict("s", batch).value();
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::atomic<int> served{0};
  std::thread traffic([&] {
    while (!stop.load()) {
      auto scores = client.Predict("s", batch);
      if (!scores.ok() || scores.value() != expected) wrong.fetch_add(1);
      served.fetch_add(1);
    }
  });
  for (int i = 0; i <= 20; ++i) {
    // Each switch waits for a fresh answer, so it lands in flowing traffic;
    // the last wait lets requests run under the final policy.
    const int seen = served.load();
    while (served.load() == seen) std::this_thread::yield();
    if (i == 20) break;
    ServingResilienceOptions options;
    options.fallback_prior = 0.1f * static_cast<float>(i % 5);
    client.EnableResilience(options);
  }
  stop.store(true);
  traffic.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(client.BreakerStates().count("s"), 1u);
}

TEST(ServingClientTest, ReplicatedQuantizedDeployPreparesOnce) {
  // One deploy call quantizes once, and every replica serves that one
  // snapshot.
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(3, 3), &registry);
  DeployOptions options;
  options.quantize_int8 = true;
  ASSERT_TRUE(client.Deploy("s", TinyModel(23), options).ok());
  EXPECT_EQ(registry.counter_value("serving/quantized_deploys"), 1);
  const std::vector<std::string> replicas =
      client.coordinator()->ReplicasOf("s");
  ASSERT_EQ(replicas.size(), 3u);
  const ModelServer::Snapshot model =
      client.coordinator()->shard(replicas[0])->engine()->Model("s");
  ASSERT_NE(model, nullptr);
  for (const std::string& id : replicas) {
    EXPECT_EQ(client.coordinator()->shard(id)->engine()->Model("s"), model);
  }
  // A redeploy prepares (and counts) once more.
  ASSERT_TRUE(client.Deploy("s", TinyModel(24), options).ok());
  EXPECT_EQ(registry.counter_value("serving/quantized_deploys"), 2);
}

TEST(ServingClientTest, ExportBundleWritesServableArtifact) {
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(2, 1), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(14)).ok());
  const std::string path = ::testing::TempDir() + "/serving_client_s.altm";
  ASSERT_TRUE(client.ExportBundle("s", path).ok());
  auto reloaded = LoadModelBundleFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  const data::Batch batch = OneSample(15);
  auto direct = client.Predict("s", batch);
  ASSERT_TRUE(direct.ok());
  EXPECT_FLOAT_EQ(reloaded.value()->PredictProbs(batch)[0],
                  direct.value()[0]);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Elastic shard lifecycle through the facade.
// ---------------------------------------------------------------------------

TEST(ServingClientTest, KillRejoinLosesNoBatchRequests) {
  // The full chaos cycle on the batched path: a shard dies under enqueued
  // load, its requests fail over to replicas, and a warm re-join brings it
  // back — zero lost requests end to end.
  obs::MetricsRegistry registry;
  ServingClient::Options options = SmallTopology(3, 2);
  options.rejoin_stages = 3;
  ServingClient client(options, &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(16)).ok());
  const std::string owner = client.coordinator()->ReplicasOf("s").front();

  Rng rng(17);
  std::vector<std::future<Result<float>>> futures;
  const std::vector<int64_t> behavior = {0, 1, 2, 3, 4};
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        client.EnqueuePredict("s", Tensor::Randn({1, 4}, &rng), behavior));
  }
  ASSERT_TRUE(client.KillShard(owner).ok());
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        client.EnqueuePredict("s", Tensor::Randn({1, 4}, &rng), behavior));
  }

  ASSERT_TRUE(client.RejoinShard(owner).ok());
  EXPECT_EQ(client.NumLiveShards(), 3);
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        client.EnqueuePredict("s", Tensor::Randn({1, 4}, &rng), behavior));
  }

  for (auto& future : futures) {
    Result<float> result = future.get();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(registry.counter_value("serving/shard_unavailable"), 0);
  EXPECT_GE(registry.counter_value("serving/coordinator/rejoins"), 1);
  // The rejoined shard serves again: its model came back from the cached
  // bundle at the current version.
  EXPECT_GE(client.coordinator()->shard(owner)->engine()->Version("s"), 1u);
}

TEST(ServingClientTest, KillEpochReleasesParkedSyncPredictToReplica) {
  // A sync predict admitted on one replica parks there before its engine
  // call. Killing that shard releases it with Unavailable on the caller's
  // thread, which rebalances and takes the other replica's answer.
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(3, 2), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(25)).ok());
  shard::ShardCoordinator* coordinator = client.coordinator();
  const std::vector<std::string> group = coordinator->ReplicasOf("s");
  ASSERT_EQ(group.size(), 2u);
  const data::Batch batch = OneSample(26);
  const std::vector<float> expected =
      coordinator->shard(group[0])->engine()->Model("s")->PredictProbs(batch);

  for (const std::string& id : group) {
    coordinator->shard(id)->PauseDispatchForTesting(true);
  }
  std::future<Result<std::vector<float>>> parked = std::async(
      std::launch::async, [&client, &batch] {
        return client.Predict("s", batch);
      });
  std::string victim;
  while (victim.empty()) {
    for (const std::string& id : group) {
      if (coordinator->shard(id)->QueueDepth() == 1) victim = id;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string survivor = victim == group[0] ? group[1] : group[0];
  coordinator->shard(survivor)->PauseDispatchForTesting(false);
  ASSERT_TRUE(client.KillShard(victim).ok());

  Result<std::vector<float>> result = parked.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value(), expected);
  EXPECT_EQ(registry.counter_value("serving/rebalance_events"), 1);
  EXPECT_EQ(client.NumLiveShards(), 2);
  EXPECT_EQ(coordinator->shard(victim)->QueueDepth(), 0);
}

TEST(ServingClientTest, AddShardGrowsTopologyAndServes) {
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(2, 2), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(18)).ok());
  ASSERT_TRUE(client.AddShard("shard-2").ok());
  EXPECT_EQ(client.NumLiveShards(), 3);
  EXPECT_EQ(client.ShardIds().size(), 3u);
  EXPECT_EQ(client.GetStats().num_shards, 3);
  EXPECT_EQ(client.AddShard("shard-2").code(), StatusCode::kAlreadyExists);

  // The newcomer participates in batched serving without request loss.
  Rng rng(19);
  std::vector<std::future<Result<float>>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(client.EnqueuePredict("s", Tensor::Randn({1, 4}, &rng),
                                            {0, 1, 2, 3, 4}));
  }
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());
  }
}

TEST(ServingClientTest, GetHealthReflectsShardLifecycle) {
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(2, 1), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(20)).ok());

  ServingClient::HealthReport health = client.GetHealth();
  EXPECT_TRUE(health.healthy);
  EXPECT_FALSE(health.degraded);
  EXPECT_EQ(health.shard_states.size(), 2u);
  for (const auto& [id, state] : health.shard_states) {
    EXPECT_EQ(state, "live") << id;
  }

  // With replication 1, killing the owner leaves "s" unservable -> 503.
  const std::string owner = client.coordinator()->ReplicasOf("s").front();
  ASSERT_TRUE(client.KillShard(owner).ok());
  health = client.GetHealth();
  EXPECT_FALSE(health.healthy);
  EXPECT_TRUE(health.degraded);
  EXPECT_EQ(health.shard_states.at(owner), "dead");
  ASSERT_EQ(health.unservable_scenarios.size(), 1u);
  EXPECT_EQ(health.unservable_scenarios[0], "s");

  // Warm re-join restores full health.
  ASSERT_TRUE(client.RejoinShard(owner).ok());
  health = client.GetHealth();
  EXPECT_TRUE(health.healthy);
  EXPECT_FALSE(health.degraded);
  EXPECT_TRUE(health.unservable_scenarios.empty());
}

}  // namespace
}  // namespace serving
}  // namespace alt
