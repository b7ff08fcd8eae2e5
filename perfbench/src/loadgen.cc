#include "perfbench/src/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <limits>
#include <mutex>

#include "perfbench/src/bench.h"

namespace perfbench {

using alt::Rng;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void SleepUntil(double when_seconds) {
  const auto deadline = std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(when_seconds)));
  std::this_thread::sleep_until(deadline);
}

double ExpGap(Rng* rng, double rate) {
  return -std::log(1.0 - rng->Uniform(0.0, 1.0)) / rate;
}

/// Merges a per-thread partial result into `into`.
void Merge(StepStats* into, StepStats&& part) {
  into->due += part.due;
  into->sent += part.sent;
  into->ok += part.ok;
  into->failed += part.failed;
  into->wrong += part.wrong;
  into->backlog += part.backlog;
  into->latency_ms.insert(into->latency_ms.end(), part.latency_ms.begin(),
                          part.latency_ms.end());
  into->lag_ms.insert(into->lag_ms.end(), part.lag_ms.begin(),
                      part.lag_ms.end());
  into->due_s.insert(into->due_s.end(), part.due_s.begin(), part.due_s.end());
}

}  // namespace

double StepStats::P50() const { return Quantile(latency_ms, 0.50); }
double StepStats::P99() const {
  std::vector<std::vector<double>> windows(kWindows);
  for (size_t i = 0; i < latency_ms.size(); ++i) {
    const int w = static_cast<int>(due_s[i] / seconds * kWindows);
    windows[std::clamp(w, 0, kWindows - 1)].push_back(latency_ms[i]);
  }
  std::vector<double> p99;
  for (const std::vector<double>& window : windows) {
    if (!window.empty()) p99.push_back(Quantile(window, 0.99));
  }
  return Median(p99);
}
double StepStats::LagP99() const { return Quantile(lag_ms, 0.99); }

bool StepStats::Sustained(double limit_ms) const {
  const double allowed_backlog =
      rate_rps * limit_ms / 1e3 + LoadGenerator::kBurst;
  return failed == 0 && wrong == 0 && P99() <= limit_ms &&
         static_cast<double>(backlog) <= allowed_backlog;
}

bool StepStats::GeneratorBehind(double limit_ms) const {
  return LagP99() > limit_ms;
}

LoadGenerator::LoadGenerator(alt::serving::ServingClient* client,
                             const Zoo* zoo, Traffic traffic, uint64_t seed)
    : client_(client), zoo_(zoo), traffic_(traffic), seed_(seed) {
  for (int s = 0; s < Zoo::kScenarios; ++s) names_.push_back(Zoo::Name(s));
}

StepStats LoadGenerator::Run(double rate_rps, double seconds) {
  const uint64_t stream = seed_ * 104729 + 977 * (++steps_);
  const double cpu_start = CpuSeconds();
  const double wall_start = NowSeconds();
  StepStats stats;
  stats.rate_rps = rate_rps;
  stats.seconds = seconds;
  Merge(&stats, traffic_ == Traffic::kDirect
                    ? RunDirect(rate_rps, seconds, stream)
                    : RunBatched(rate_rps, seconds, stream));
  const double wall = NowSeconds() - wall_start;
  stats.cpu_util =
      wall > 0.0 ? (CpuSeconds() - cpu_start) / wall / NumCpus() : 0.0;
  return stats;
}

StepStats LoadGenerator::RunDirect(double rate_rps, double seconds,
                                   uint64_t stream) {
  constexpr int kSenders = 2;
  const double start = NowSeconds() + 0.002;
  const double end = start + seconds;
  auto sender = [&](int index, StepStats* out) {
    Rng rng(stream + static_cast<uint64_t>(index));
    const double rate = rate_rps / kSenders;
    double due = start;
    for (;;) {
      due += ExpGap(&rng, rate);
      if (due >= end) break;
      // Draw the request before looking at the clock so the request
      // sequence depends on the seed only.
      const int scenario = zoo_->SampleScenario(&rng);
      const int input =
          static_cast<int>(rng.UniformInt(0, Zoo::kInputs - 1));
      out->due++;
      if (NowSeconds() >= end) {
        out->backlog++;  // Due in the step, never sent within it.
        continue;
      }
      const bool idle = NowSeconds() < due;
      SleepUntil(due);
      const double sent = NowSeconds();
      alt::Result<std::vector<float>> result =
          client_->Predict(names_[scenario], zoo_->Input(input));
      const double done = NowSeconds();
      out->sent++;
      out->lag_ms.push_back((sent - due) * 1e3);
      out->due_s.push_back(due - start);
      if (done > end) out->backlog++;
      if (!result.ok() || result.value().size() != 1) {
        out->failed++;
        out->latency_ms.push_back(kInf);
      } else if (!zoo_->Matches(scenario, input, result.value()[0])) {
        out->wrong++;
        out->latency_ms.push_back(kInf);
      } else {
        out->ok++;
        out->latency_ms.push_back((done - (idle ? sent : due)) * 1e3);
      }
    }
  };
  StepStats parts[kSenders];
  std::thread second(sender, 1, &parts[1]);
  sender(0, &parts[0]);
  second.join();
  StepStats stats;
  for (StepStats& part : parts) Merge(&stats, std::move(part));
  return stats;
}

StepStats LoadGenerator::RunBatched(double rate_rps, double seconds,
                                    uint64_t stream) {
  struct Pending {
    std::future<alt::Result<float>> future;
    double start = 0.0;  // Latency origin, see the header.
    double due_s = 0.0;
    int scenario = 0;
    int input = 0;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool sender_done = false;

  const double start = NowSeconds() + 0.002;
  const double end = start + seconds;
  StepStats sent_part;  // Written by the sender only.
  std::thread sender([&]() {
    Rng rng(stream);
    const double burst_rate = rate_rps / kBurst;
    double due = start;
    for (;;) {
      due += ExpGap(&rng, burst_rate);
      if (due >= end) break;
      const int scenario = zoo_->SampleScenario(&rng);
      int inputs[kBurst];
      for (int& input : inputs) {
        input = static_cast<int>(rng.UniformInt(0, Zoo::kInputs - 1));
      }
      sent_part.due += kBurst;
      if (NowSeconds() >= end) {
        sent_part.backlog += kBurst;
        continue;
      }
      const bool idle = NowSeconds() < due;
      SleepUntil(due);
      for (int input : inputs) {
        const double sent = NowSeconds();
        Pending pending;
        pending.future = client_->EnqueuePredict(
            names_[scenario], zoo_->Profile(input), zoo_->Behavior(input));
        pending.start = idle ? sent : due;
        pending.due_s = due - start;
        pending.scenario = scenario;
        pending.input = input;
        sent_part.sent++;
        sent_part.lag_ms.push_back((sent - due) * 1e3);
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(std::move(pending));
      }
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    sender_done = true;
    cv.notify_one();
  });

  // This thread collects: futures resolve in roughly FIFO order because
  // each shard's batcher flushes its queue in arrival order.
  StepStats done_part;
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&]() { return !queue.empty() || sender_done; });
      if (queue.empty()) break;
      pending = std::move(queue.front());
      queue.pop_front();
    }
    alt::Result<float> result = pending.future.get();
    const double done = NowSeconds();
    done_part.due_s.push_back(pending.due_s);
    if (done > end) done_part.backlog++;
    if (!result.ok()) {
      done_part.failed++;
      done_part.latency_ms.push_back(kInf);
    } else if (!zoo_->Matches(pending.scenario, pending.input,
                              result.value())) {
      done_part.wrong++;
      done_part.latency_ms.push_back(kInf);
    } else {
      done_part.ok++;
      done_part.latency_ms.push_back((done - pending.start) * 1e3);
    }
  }
  sender.join();
  StepStats stats;
  Merge(&stats, std::move(sent_part));
  Merge(&stats, std::move(done_part));
  return stats;
}

double SearchSustainedRate(LoadGenerator* generator, double start_rps,
                           double limit_ms, int steps, double step_seconds,
                           std::vector<StepStats>* log) {
  double passed = 0.0;
  double failed = kInf;
  double rate = start_rps;
  for (int step = 0; step < steps; ++step) {
    StepStats stats = generator->Run(rate, step_seconds);
    if (stats.Sustained(limit_ms)) {
      passed = std::max(passed, rate);
    } else {
      failed = std::min(failed, rate);
    }
    log->push_back(std::move(stats));
    if (failed == kInf) {
      rate = passed * 1.5;
    } else if (passed == 0.0) {
      rate = failed / 1.5;
    } else {
      rate = std::sqrt(passed * failed);
    }
  }
  return passed;
}

bool WaitForIdleShards(alt::serving::ServingClient* client, double timeout_s) {
  const double deadline = NowSeconds() + timeout_s;
  for (;;) {
    int64_t depth = 0;
    for (const std::string& id : client->ShardIds()) {
      const alt::serving::shard::WorkerShard* shard =
          client->coordinator()->shard(id);
      if (shard != nullptr) depth += shard->QueueDepth();
    }
    if (depth == 0) return true;
    if (NowSeconds() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

Redeployer::Redeployer(alt::serving::ServingClient* client, const Zoo* zoo,
                       uint64_t seed, double per_second)
    : client_(client), zoo_(zoo) {
  thread_ = std::thread(&Redeployer::Loop, this, seed, per_second);
}

Redeployer::~Redeployer() { Stop(); }

std::vector<double> Redeployer::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  return deploy_ms_;
}

void Redeployer::Loop(uint64_t seed, double per_second) {
  Rng rng(seed * 6271 + 3);
  const double start = NowSeconds();
  for (int64_t k = 1; !stop_.load(); ++k) {
    // Sleep in short slices so Stop() returns promptly.
    const double next = start + static_cast<double>(k) / per_second;
    while (!stop_.load() && NowSeconds() < next) {
      SleepUntil(std::min(next, NowSeconds() + 0.01));
    }
    if (stop_.load()) break;
    bool ok = false;
    deploy_ms_.push_back(RedeployOnce(client_, zoo_, &rng, &ok));
    if (!ok) failed_.fetch_add(1);
  }
}

double RedeployOnce(alt::serving::ServingClient* client, const Zoo* zoo,
                    Rng* rng, bool* ok) {
  const int scenario = static_cast<int>(rng->UniformInt(0, Zoo::kHot - 1));
  std::unique_ptr<alt::models::BaseModel> model = zoo->CloneModel(scenario);
  alt::serving::DeployOptions options;
  options.hot = true;
  const double begin = NowSeconds();
  const alt::Status status =
      model == nullptr
          ? alt::Status::Internal("clone failed")
          : client->Deploy(Zoo::Name(scenario), std::move(model), options);
  const double ms = (NowSeconds() - begin) * 1e3;
  *ok = status.ok();
  return ms;
}

}  // namespace perfbench
