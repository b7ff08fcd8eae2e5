#ifndef ALT_SRC_SERVING_SERVING_CLIENT_H_
#define ALT_SRC_SERVING_SERVING_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/models/base_model.h"
#include "src/obs/metrics.h"
#include "src/obs/request_trace.h"
#include "src/obs/slo.h"
#include "src/resilience/circuit_breaker.h"
#include "src/serving/model_server.h"
#include "src/serving/shard/coordinator.h"
#include "src/serving/shard/supervisor.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace alt {
namespace serving {

/// The public serving API: one facade over the sharded serving plane for
/// deploy, predict, batch-predict, undeploy, elasticity, and stats.
/// Subsumes direct ModelServer use.
///
/// Topology: `Options::num_shards` WorkerShards (each a ModelServer with a
/// batching dispatcher thread) behind a ShardCoordinator — consistent-hash
/// routing, replica groups, breaker-driven rebalancing, and version-gated
/// deploy broadcast. `num_shards = 1` (the default) is the classic
/// single-server layout. A direct Predict is scored on the caller's thread.
///
/// Batch path: EnqueuePredict queues a one-row task on the scenario's first
/// live replica, whose dispatcher coalesces the same-scenario rows at the
/// front of its queue into one engine call — one queue and one thread hop.
/// A dead shard's queued requests fail over to replicas; with no replica
/// left they fail kUnavailable (counted in serving/shard_unavailable).
/// Batched requests feed serving/batch_predictor/request_latency_ms.
class ServingClient {
 public:
  struct Options {
    /// Worker shards. 1 = classic single-server serving.
    int num_shards = 1;
    /// Virtual nodes per shard on the consistent-hash ring.
    int vnodes_per_shard = 128;
    /// Replicas per scenario; hot scenarios get `hot_replication`.
    int replication = 1;
    int hot_replication = 2;
    /// Shard-health breakers; an open breaker triggers the rebalance.
    resilience::CircuitBreakerOptions shard_breaker =
        shard::CoordinatorOptions::DefaultShardBreaker();
    /// Per-shard queue cap (0 = unbounded) and soft load-shedding
    /// watermarks with hysteresis (high <= 0 disables shedding); see
    /// shard::CoordinatorOptions.
    int64_t max_queue_depth_per_shard = 0;
    int64_t shed_high_watermark = 0;
    int64_t shed_low_watermark = 0;
    /// Warm re-join pacing: staged vnode batches, optional pause between.
    int rejoin_stages = 4;
    double rejoin_stage_pause_ms = 0.0;
    /// Health-probed membership: construct (and start) a ShardSupervisor
    /// driving the Live -> Suspect -> Dead -> Rejoining lifecycle, with
    /// `supervisor` holding the probe cadence / eviction / cooldown knobs.
    /// Tests that need exact schedules usually keep this off and drive a
    /// standalone ShardSupervisor::ProbeOnce() on a FakeClock instead.
    bool enable_supervisor = false;
    shard::SupervisorOptions supervisor;
    /// Clock for re-join pacing (and the supervisor, unless its own clock
    /// is set); nullptr = real clock.
    resilience::Clock* clock = nullptr;
    /// Micro-batching knobs of the EnqueuePredict path, applied by every
    /// shard dispatcher; max_batch_size < 1 or max_delay_ms < 0 aborts
    /// construction.
    shard::BatchingOptions batching;
    /// Graceful degradation (breakers + fallback predictions) on every
    /// shard engine, enabled at construction. EnableResilience() turns it
    /// on later (e.g. with a test clock).
    bool enable_resilience = false;
    ServingResilienceOptions resilience;
    /// Request-scoped tracing: sampled requests (ALT_TRACE_SAMPLE unless
    /// trace.sample_rate >= 0) get segment attribution and a slot in the
    /// slow-trace ring. Null registry / recorder: the client's / global.
    obs::RequestTracer::Options trace;
    /// Per-scenario SLO burn-rate tracking. Null registry: the client's;
    /// null now_ms: Options::clock when set, else the steady clock.
    obs::SloTracker::Options slo;
  };

  /// Aggregate serving-plane stats (per-scenario latency distributions come
  /// from GetLatencyStats).
  struct Stats {
    /// Every shard, added ones included, dead or alive.
    int num_shards = 0;
    int live_shards = 0;
    /// max/mean scenario-ownership share across live shards (1.0 = even).
    double routing_imbalance = 1.0;
    int64_t requests_served = 0;
    /// Batch-path requests enqueued but not yet resolved.
    int64_t pending_batch_requests = 0;
    /// Sampled requests completed by the request tracer.
    int64_t traced_requests = 0;
    /// Slowest completed traced request retained in the slow-trace ring.
    double slowest_request_ms = 0.0;
    /// Scenarios whose short-window SLO burn rate currently exceeds 1.
    int scenarios_burning = 0;
  };

  /// `registry == nullptr` selects the process-global registry; all shards
  /// share it, so per-scenario metrics aggregate fleet-wide.
  explicit ServingClient(Options options,
                         obs::MetricsRegistry* registry = nullptr);
  /// Default topology: one shard, global registry. (A separate constructor
  /// because a `= {}` default argument cannot name the nested Options
  /// before its member initializers are parsed.)
  ServingClient();
  ~ServingClient();

  ServingClient(const ServingClient&) = delete;
  ServingClient& operator=(const ServingClient&) = delete;

  /// Deploys `model` to the scenario's replica group (broadcast, version
  /// gated). DeployOptions selects quantization, hot replication, and
  /// transient-failure retries.
  Status Deploy(const std::string& scenario,
                std::unique_ptr<models::BaseModel> model,
                const DeployOptions& options = {});

  /// Deploys to every shard — for the resilience fallback/default
  /// scenarios any shard must answer locally.
  Status DeployEverywhere(const std::string& scenario,
                          std::unique_ptr<models::BaseModel> model,
                          const DeployOptions& options = {});

  Status Undeploy(const std::string& scenario);
  bool IsDeployed(const std::string& scenario) const;
  std::vector<std::string> Scenarios() const;

  /// Synchronous batch predict: routed to the scenario's replica group with
  /// load balancing and failover. Starts a request trace (sampled at the
  /// tracer's rate) and records the outcome against the scenario's latency
  /// histogram and SLO.
  Result<std::vector<float>> Predict(const std::string& scenario,
                                     const data::Batch& batch);

  /// Asynchronous single-request predict, coalesced on the shard. `profile`
  /// is [1, P] or [P]. An unknown scenario resolves NotFound, a malformed
  /// request InvalidArgument, without failing its batch.
  std::future<Result<float>> EnqueuePredict(const std::string& scenario,
                                            Tensor profile,
                                            std::vector<int64_t> behavior);

  /// Blocks until every enqueued batch request has resolved.
  void DrainBatchQueues() const;

  /// Enables graceful degradation on every shard engine and deploys
  /// nothing — pair with DeployEverywhere for the fallback scenario. Safe
  /// while traffic flows. `clock == nullptr` selects the real clock.
  void EnableResilience(const ServingResilienceOptions& options,
                        resilience::Clock* clock = nullptr);

  /// Shard-health breakers ("shard:<id>") plus worst per-scenario engine
  /// breaker — drives the telemetry /healthz probe.
  std::map<std::string, resilience::BreakerState> BreakerStates() const;

  Stats GetStats() const;
  Result<LatencyStats> GetLatencyStats(const std::string& scenario) const;
  Result<int64_t> FlopsPerSample(const std::string& scenario) const;
  Status ExportBundle(const std::string& scenario,
                      const std::string& path) const;

  std::vector<std::string> ShardIds() const;
  int NumLiveShards() const;
  /// Chaos hook: kills a shard; traffic fails over and the coordinator
  /// rebalances on the next requests against it.
  Status KillShard(const std::string& shard_id);

  /// Warm re-join of a killed/evicted shard: the coordinator publishes its
  /// current model snapshots to it before its virtual nodes re-enter the
  /// ring in staged batches. See ShardCoordinator::RejoinShard.
  Status RejoinShard(const std::string& shard_id);

  /// Elastic scale-up: adds a brand-new shard through the same warm staged
  /// admission.
  Status AddShard(const std::string& shard_id);

  /// Shard-state health report, the /healthz / /readyz source of truth.
  struct HealthReport {
    /// False only when a deployed scenario has no live replica left —
    /// requests to it fail until a re-join/re-deploy. Maps to HTTP 503.
    bool healthy = true;
    /// True while any shard is not live (suspect / dead / rejoining):
    /// serving capacity is degraded but every scenario still answers.
    bool degraded = false;
    /// Shard id -> lifecycle state name ("live", "suspect", "dead",
    /// "rejoining"). Supervisor states when one runs, else live/dead.
    std::map<std::string, std::string> shard_states;
    std::vector<std::string> unservable_scenarios;
  };
  HealthReport GetHealth() const;

  /// The underlying control plane — white-box access for tests and tools.
  shard::ShardCoordinator* coordinator() { return &coordinator_; }
  const shard::ShardCoordinator* coordinator() const { return &coordinator_; }

  /// The health-probe loop; nullptr unless Options::enable_supervisor.
  shard::ShardSupervisor* supervisor() { return supervisor_.get(); }

  /// Request tracer (sampling, slow-trace ring) — the /trace/slow source.
  obs::RequestTracer* tracer() const { return tracer_.get(); }
  /// Per-scenario SLO burn tracker — the /slo and alt_slo_* source.
  obs::SloTracker* slo() const { return slo_.get(); }

  obs::MetricsRegistry* registry() const { return registry_; }
  const Options& options() const { return options_; }

 private:
  /// Per-scenario request-latency histogram
  /// (`serving/request/latency_ms/<scenario>` → the exporter renders it as
  /// alt_serving_request_latency_ms{id="<scenario>"}), cached per scenario.
  obs::Histogram* LatencyHistogramFor(const std::string& scenario)
      ALT_EXCLUDES(latency_mu_);
  /// Terminal accounting for every request (direct or batched): latency
  /// histogram + SLO outcome, serving/request/invalid/<scenario> instead of
  /// the SLO when malformed, and only serving/request/not_found if unknown.
  void RecordOutcome(const std::string& scenario, double latency_ms,
                     const Status& status);

  Options options_;
  obs::MetricsRegistry* registry_;
  /// Declared before the coordinator: shard dispatchers complete batched
  /// requests through these until the coordinator stops them.
  std::unique_ptr<obs::RequestTracer> tracer_;
  std::unique_ptr<obs::SloTracker> slo_;
  mutable Mutex latency_mu_;
  std::map<std::string, obs::Histogram*> latency_hists_
      ALT_GUARDED_BY(latency_mu_);
  obs::Histogram* batch_latency_ms_;  // Owned by the registry.
  obs::Counter* shard_unavailable_;   // Owned by the registry.
  /// Batched requests enqueued and not yet resolved.
  std::atomic<int64_t> pending_batch_{0};
  shard::ShardCoordinator coordinator_;
  /// Declared last so its probe thread stops before anything it watches.
  std::unique_ptr<shard::ShardSupervisor> supervisor_;
};

}  // namespace serving
}  // namespace alt

#endif  // ALT_SRC_SERVING_SERVING_CLIENT_H_
