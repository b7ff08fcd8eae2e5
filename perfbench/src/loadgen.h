// Open-loop load generation against a ServingClient.
//
// Requests follow a seeded Poisson schedule. A request the generator was
// late to send because the system had not yet released it (a synchronous
// sender still waiting on an earlier reply, a sender busy enqueuing) is
// timed from the moment it was *due*, so a stall shows up in the latency
// of the requests it delayed instead of silently lowering the offered load
// (coordinated omission). A request whose sender was idle and asleep is
// timed from its actual send: how late the sleeping generator woke is the
// generator's own lag, reported apart as `lag_ms` and never folded into
// latency. The generator uses at most two threads and sleeps, never spins,
// until the next send is due.

#ifndef PERFBENCH_SRC_LOADGEN_H_
#define PERFBENCH_SRC_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/zoo.h"
#include "src/serving/serving_client.h"

namespace perfbench {

enum class Traffic {
  /// Two senders, each calling the synchronous ServingClient::Predict with
  /// one sample per request.
  kDirect,
  /// One sender enqueuing bursts of kBurst same-scenario requests through
  /// EnqueuePredict, one collector resolving their futures.
  kBatched,
};

/// Result of one fixed-rate step.
struct StepStats {
  double rate_rps = 0.0;
  double seconds = 0.0;
  int64_t due = 0;      // Requests scheduled before the step ended.
  int64_t sent = 0;
  int64_t ok = 0;       // Served with the expected score.
  int64_t failed = 0;   // Returned an error status.
  int64_t wrong = 0;    // Served a score outside Zoo::kTolerance.
  /// Requests due before the step ended but not completed by then.
  int64_t backlog = 0;
  /// Per sent request (origin: see above); infinite when failed or wrong.
  std::vector<double> latency_ms;
  /// Per sent request, aligned with latency_ms: due time minus step start.
  std::vector<double> due_s;
  /// Per sent request: send time minus due time.
  std::vector<double> lag_ms;
  double cpu_util = 0.0;  // Process CPU / wall / CPUs over the step.

  /// Median over every request of the step.
  double P50() const;
  /// Median over kWindows equal slices of the step of each slice's p99: a
  /// host stall that hits one slice moves this less than a pooled p99.
  double P99() const;
  static constexpr int kWindows = 3;
  double LagP99() const;
  /// True when the step meets the p99 limit, left no more backlog than
  /// `limit_ms` worth of arrivals, and every request was served correctly.
  bool Sustained(double limit_ms) const;
  /// True when the generator itself ran late by more than `limit_ms` at
  /// p99, so the step's latency partly measures the generator.
  bool GeneratorBehind(double limit_ms) const;
};

class LoadGenerator {
 public:
  static constexpr int kBurst = 16;

  LoadGenerator(alt::serving::ServingClient* client, const Zoo* zoo,
                Traffic traffic, uint64_t seed);

  /// Offers `rate_rps` requests per second for `seconds`, then waits for
  /// every sent request to resolve. Each call draws a fresh schedule from
  /// the seed and the call's ordinal.
  StepStats Run(double rate_rps, double seconds);

 private:
  StepStats RunDirect(double rate_rps, double seconds, uint64_t stream);
  StepStats RunBatched(double rate_rps, double seconds, uint64_t stream);

  alt::serving::ServingClient* client_;
  const Zoo* zoo_;
  Traffic traffic_;
  uint64_t seed_;
  uint64_t steps_ = 0;
  std::vector<std::string> names_;
};

/// Highest rate that meets `limit_ms` at p99 without a growing backlog.
/// Starts at `start_rps`, grows by 1.5x until a step fails (or shrinks
/// until one passes), then bisects geometrically; `steps` steps of
/// `step_seconds` each. Every step is appended to `log`.
double SearchSustainedRate(LoadGenerator* generator, double start_rps,
                           double limit_ms, int steps, double step_seconds,
                           std::vector<StepStats>* log);

/// Waits, sleeping, until every shard of `client` has an empty queue, or
/// `timeout_s` passes; returns false on timeout. A shard dispatcher counts
/// a request in serving/shard/requests/<id> just after resolving its
/// future and empties its queue-depth slot after that, so a registry
/// snapshot taken once this returns true has counted every request whose
/// future has resolved.
bool WaitForIdleShards(alt::serving::ServingClient* client, double timeout_s);

/// Redeploys one of the hot Zipf-head scenarios (drawn from `rng`) with a
/// clone of its weights; returns the Deploy wall time in ms and sets
/// `*ok`. Only hot scenarios, so every redeploy publishes to the same
/// replica count and the deploy-time distribution has one mode.
double RedeployOnce(alt::serving::ServingClient* client, const Zoo* zoo,
                    alt::Rng* rng, bool* ok);

/// A fixed-cadence stream of redeploys to hot Zipf-head scenarios, run on its
/// own thread beside the request traffic. Each redeploy publishes a clone
/// of the scenario's current weights, so served scores stay checkable.
class Redeployer {
 public:
  Redeployer(alt::serving::ServingClient* client, const Zoo* zoo,
             uint64_t seed, double per_second);
  ~Redeployer();
  Redeployer(const Redeployer&) = delete;
  Redeployer& operator=(const Redeployer&) = delete;

  /// Stops the stream and joins the thread; returns each Deploy's wall
  /// time in ms. Idempotent.
  std::vector<double> Stop();
  int64_t failed() const { return failed_.load(); }

 private:
  void Loop(uint64_t seed, double per_second);

  alt::serving::ServingClient* client_;
  const Zoo* zoo_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> failed_{0};
  std::vector<double> deploy_ms_;  // Written by the thread until joined.
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LOADGEN_H_
