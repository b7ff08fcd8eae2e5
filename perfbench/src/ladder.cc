// The layer ladder. Each rung calls one public entry point of the serving
// path with the same request; a rung's overhead is its median time minus
// the median of the rung below, which it calls.
//
//   tensor      MatMul                                 (64x64x64 GEMM)
//   models      BaseModel::PredictProbs                (forward)
//   model_server ModelServer::Predict                  (engine)
//   shard       WorkerShard::SubmitPredict + get       (dispatcher hop)
//   coordinator ShardCoordinator::Predict              (routing)
//   client      ServingClient::Predict                 (sync facade)
//   client      ServingClient::EnqueuePredict x32      (micro-batching)

#include <cstdio>
#include <functional>
#include <future>

#include "perfbench/src/phases.h"
#include "src/tensor/kernels.h"

namespace perfbench {

namespace data = alt::data;

namespace {

constexpr int kRounds = 24;
constexpr int kBlock = 25;

/// One timed entry point: `call` returns false when the layer answered with
/// an error or a wrong score.
struct Rung {
  std::string name;
  std::function<bool()> call;
  std::vector<double> us;
};

/// Times every rung in blocks of kBlock back-to-back calls, one block per
/// rung per round, so that drift in the host's speed lands on all rungs
/// alike while each block runs warm; returns false when any call failed.
bool TimeInterleaved(std::vector<Rung>* rungs) {
  bool ok = true;
  for (int round = -1; round < kRounds; ++round) {  // Round -1 warms up.
    for (Rung& rung : *rungs) {
      for (int i = 0; i < kBlock; ++i) {
        const double start = NowSeconds();
        ok = rung.call() && ok;
        if (round >= 0) rung.us.push_back((NowSeconds() - start) * 1e6);
      }
    }
  }
  return ok;
}

}  // namespace

void RunLadder(alt::serving::ServingClient* client, const Zoo& zoo,
               Report* report) {
  constexpr int kScenario = 0;
  const std::string name = Zoo::Name(kScenario);
  const data::Batch& b1 = zoo.Input(0);
  const data::Batch b32 = zoo.StackedInputs(32);
  alt::serving::shard::ShardCoordinator* coordinator = client->coordinator();
  alt::serving::shard::WorkerShard* shard =
      coordinator->shard(coordinator->ReplicasOf(name).front());
  alt::serving::ModelServer* engine = shard->engine();
  alt::models::BaseModel* model = zoo.Reference(kScenario);

  alt::Rng rng(5);
  const alt::Tensor a = alt::Tensor::Randn({64, 64}, &rng);
  const alt::Tensor b = alt::Tensor::Randn({64, 64}, &rng);
  alt::Tensor c({64, 64});

  auto served = [](const alt::Result<std::vector<float>>& r, size_t n) {
    return r.ok() && r.value().size() == n;
  };
  // Rungs in layer order, each calling the one before it; b1 then b32.
  std::vector<Rung> rungs = {
      {"tensor.gemm", [&]() { alt::MatMul(a, b, &c); return true; }, {}},
      {"models.forward", [&]() { return model->PredictProbs(b1).size() == 1; }, {}},
      {"serving.model_server", [&]() { return served(engine->Predict(name, b1), 1); }, {}},
      {"serving.shard", [&]() { return served(shard->SubmitPredict(name, b1).get(), 1); }, {}},
      {"serving.coordinator", [&]() { return served(coordinator->Predict(name, b1), 1); }, {}},
      {"serving.client", [&]() { return served(client->Predict(name, b1), 1); }, {}},
      {"models.forward.b32", [&]() { return model->PredictProbs(b32).size() == 32; }, {}},
      {"serving.model_server.b32", [&]() { return served(engine->Predict(name, b32), 32); }, {}},
      {"serving.shard.b32", [&]() { return served(shard->SubmitPredict(name, b32).get(), 32); }, {}},
      {"serving.coordinator.b32", [&]() { return served(coordinator->Predict(name, b32), 32); }, {}},
      {"serving.client.b32", [&]() { return served(client->Predict(name, b32), 32); }, {}},
      {"serving.client.enqueue_x32",
       [&]() {
         std::vector<std::future<alt::Result<float>>> futures;
         for (int i = 0; i < 32; ++i) {
           futures.push_back(
               client->EnqueuePredict(name, zoo.Profile(i), zoo.Behavior(i)));
         }
         bool ok = true;
         for (int i = 0; i < 32; ++i) {
           alt::Result<float> r = futures[i].get();
           ok = ok && r.ok() && zoo.Matches(kScenario, i, r.value());
         }
         return ok;
       },
       {}},
  };
  if (!TimeInterleaved(&rungs)) {
    report->Fail("ladder: a layer returned an error or a wrong score");
  }
  // MatMul calls of one b1 forward, counted by the kernel layer itself.
  constexpr int kCounted = 100;
  RegistryDelta counts;
  for (int i = 0; i < kCounted; ++i) model->PredictProbs(b1);
  counts.Finish();
  std::vector<double> us;
  for (const Rung& rung : rungs) us.push_back(Median(rung.us));

  report->Note("ladder: median us per call, and the ratio over the rung below");
  for (size_t i = 0; i < rungs.size(); ++i) {
    const bool first = i == 0 || i == 6 || i == 11;
    char line[160];
    std::snprintf(line, sizeof(line), "  %-30s %10.2f us  x%.2f",
                  rungs[i].name.c_str(), us[i],
                  first ? 0.0 : us[i] / us[i - 1]);
    report->Note(line);
  }
  report->Add("tensor.gemm_us", us[0], "us");
  report->Add("tensor.gemm_gflops", 2.0 * 64 * 64 * 64 / (us[0] * 1e3),
              "GFLOP/s");
  report->Add("tensor.gemm_calls_per_req",
              static_cast<double>(counts.Counter("tensor/gemm/calls_total")) /
                  kCounted,
              "count");
  report->Add("models.forward_us.b1", us[1], "us");
  report->Add("models.gflops.b1",
              static_cast<double>(model->FlopsPerSample()) / (us[1] * 1e3),
              "GFLOP/s");
  report->Add("models.forward_us_per_sample.b32", us[6] / 32.0, "us");
  report->Add("serving.model_server.overhead_us", us[2] - us[1], "us");
  report->Add("serving.shard.hop_us", us[3] - us[2], "us");
  report->Add("serving.coordinator.overhead_us", us[4] - us[3], "us");
  report->Add("serving.client.sync_overhead_us", us[5] - us[4], "us");
  report->Add("serving.client.batched_us_per_req", us[11] / 32.0, "us");
}

}  // namespace perfbench
