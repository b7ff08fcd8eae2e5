#ifndef ALT_SRC_SERVING_SHARD_COORDINATOR_H_
#define ALT_SRC_SERVING_SHARD_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/data/dataset.h"
#include "src/models/base_model.h"
#include "src/obs/metrics.h"
#include "src/resilience/circuit_breaker.h"
#include "src/serving/model_server.h"
#include "src/serving/shard/hash_ring.h"
#include "src/serving/shard/shard.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace alt {
namespace serving {
namespace shard {

struct CoordinatorOptions {
  /// Worker shards (each a ModelServer with its own batching dispatcher).
  /// Ids are "shard-0".."shard-(n-1)".
  int num_shards = 4;
  /// Virtual nodes per shard on the consistent-hash ring.
  int vnodes_per_shard = 128;
  /// Replicas per scenario (1 = owner only).
  int replication = 1;
  /// Replicas for scenarios deployed with DeployOptions::hot — head
  /// scenarios whose traffic justifies wider fan-out.
  int hot_replication = 2;
  /// Shard-health breakers: predict outcomes against each shard feed a
  /// breaker whose opening triggers the rebalance. Twitchier than the
  /// library default: a dead shard fails every request.
  static resilience::CircuitBreakerOptions DefaultShardBreaker() {
    resilience::CircuitBreakerOptions breaker;
    breaker.failure_threshold = 3;
    breaker.open_cooldown_ms = 1000.0;
    breaker.close_successes = 2;
    return breaker;
  }
  resilience::CircuitBreakerOptions shard_breaker = DefaultShardBreaker();
  /// Cap on each shard's depth (hard backpressure); 0 = unbounded.
  int64_t max_queue_depth_per_shard = 0;
  /// Soft load-shedding watermarks per shard, with hysteresis: from
  /// `shed_high_watermark` until the depth drains to `shed_low_watermark`,
  /// non-critical tasks are rejected with kResourceExhausted; hot /
  /// everywhere scenarios only meet the hard cap. High <= 0 disables it.
  int64_t shed_high_watermark = 0;
  int64_t shed_low_watermark = 0;
  /// Staged re-join: a re-admitted shard's virtual nodes enter the ring in
  /// this many equal batches, so each stage moves at most ~(2/N)/stages of
  /// the key space and in-flight traffic keeps failing over normally.
  int rejoin_stages = 4;
  /// Clock-paced pause between re-join stages (0 = back-to-back). Uses the
  /// injected `clock`, so FakeClock tests replay exact drain schedules.
  double rejoin_stage_pause_ms = 0.0;
  /// Time source for re-join pacing; nullptr selects the real clock.
  resilience::Clock* clock = nullptr;
};

/// Control plane of the sharded serving plane. Owns N WorkerShards, the
/// consistent-hash ring that maps scenario ids to shards, and the scenario
/// table (version, replica group, model snapshot) that makes rebalancing
/// possible.
///
/// Deploy is a broadcast: the model is prepared once into an immutable
/// snapshot (ModelServer::Prepare), and that one pointer is published to
/// every replica, gated by a per-scenario version so a rebalance can never
/// clobber a newer model. Predict and EnqueuePredict share one
/// route/failover loop: rank the live replicas and try one, inline on the
/// caller's thread for a sync trip, or through the shard queue, whose
/// callback continues the loop, for a batched one. A dead shard (Kill, or
/// breaker forced open by consecutive failures) triggers HandleShardDeath:
/// the shard leaves the ring and its scenarios' snapshots are published to
/// their new ring owners — only keys the ring moved.
///
/// Locking: `control_mu_` serializes control-plane operations
/// (Deploy/Undeploy/rebalance) and is never held while scoring or while a
/// shard task's callback runs (Kill only marks a shard dead); `state_mu_`
/// guards brief ring/table reads on the data plane. Order: control_mu_
/// before state_mu_; engine publishes run outside state_mu_ so routing
/// stays readable during a rebalance.
///
/// Obs (shared registry): serving/rebalance_events, and under
/// serving/coordinator/ the counters rejoins, failovers,
/// no_replica_available, the gauge routing_imbalance (max/mean owner share)
/// and the histogram broadcast_ms; serving/admission/{shed,accepted} count
/// requests rejected with kResourceExhausted and served after admission.
/// Shard breakers report as resilience/circuit_breaker/state/shard:<id>.
class ShardCoordinator {
 public:
  /// Final answer of one EnqueuePredict request.
  using PredictCallback = std::function<void(Result<std::vector<float>>)>;

  /// `batching` sets the micro-batching limits of every shard dispatcher
  /// (max_batch_size >= 1 and max_delay_ms >= 0 are checked).
  explicit ShardCoordinator(CoordinatorOptions options = {},
                            obs::MetricsRegistry* registry = nullptr,
                            BatchingOptions batching = {});
  /// Stops every shard dispatcher first; tasks still queued then complete
  /// Unavailable without a retry.
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Broadcasts `model` to the scenario's replica group (ring owner first).
  /// DeployOptions::hot widens the group to hot_replication;
  /// DeployOptions::retry_transient retries each replica's publish attempt.
  Status Deploy(const std::string& scenario,
                std::unique_ptr<models::BaseModel> model,
                const DeployOptions& options = {});

  /// Deploys to every live shard (and to newcomers on rebalance) — for the
  /// resilience fallback/default scenarios that any shard must be able to
  /// answer locally.
  Status DeployEverywhere(const std::string& scenario,
                          std::unique_ptr<models::BaseModel> model,
                          const DeployOptions& options = {});

  Status Undeploy(const std::string& scenario);
  bool IsDeployed(const std::string& scenario) const;
  std::vector<std::string> Scenarios() const;

  /// Routes to the scenario's replica group (power-of-two-choices over
  /// depth) and scores on the calling thread, failing over on shard errors.
  /// With resilience enabled an unknown scenario still routes by ring hash
  /// so the shard engine's default-scenario degradation applies. A sampled
  /// `ctx` books `route` for replica ranking, `failover` for failed
  /// attempts (and the rebalances they trigger), `shed_requeue` for shed
  /// ones; the shard books the successful attempt as compute.
  Result<std::vector<float>> Predict(
      const std::string& scenario, const data::Batch& batch,
      const obs::RequestContext& ctx = obs::RequestContext());

  /// Asynchronous one-row predict, coalesced by the shard dispatcher:
  /// `row` goes to the replica group's first live shard (batching
  /// locality) and fails over like Predict. `done` runs exactly once, with
  /// one score or the final error, usually on a dispatcher thread; the
  /// successful attempt's time lands as batch_wait + compute.
  void EnqueuePredict(const std::string& scenario, data::Batch row,
                      const obs::RequestContext& ctx, PredictCallback done);

  /// Configures graceful degradation on every shard engine. The caller is
  /// responsible for deploying `options.fallback_scenario` /
  /// `options.default_scenario` via DeployEverywhere.
  void EnableResilience(const ServingResilienceOptions& options,
                        resilience::Clock* clock = nullptr);

  /// Chaos hook: kills the worker (its requests in flight, inline or
  /// queued, complete Unavailable and their trips fail over). The rebalance
  /// triggers on the next predicts against the dead shard, exactly as a
  /// real crash would.
  Status KillShard(const std::string& shard_id);

  /// Evicts a shard from the ring (kill + rebalance) without waiting for
  /// traffic to trip its breaker — the ShardSupervisor's teardown path.
  /// Idempotent; NotFound for unknown ids.
  Status EvictShard(const std::string& shard_id);

  /// Warm re-join of a killed/evicted shard: revives the worker, resets its
  /// breaker, publishes the current snapshot of every scenario the
  /// fully-admitted ring will assign to it, and only then
  /// re-adds its virtual nodes in `rejoin_stages` staged batches, so no key
  /// ever routes to a shard without its model. NotFound for unknown ids;
  /// FailedPrecondition when the shard is still live.
  Status RejoinShard(const std::string& shard_id);

  /// Elastic scale-up: creates a WorkerShard with the plane's configuration
  /// and admits it through RejoinShard's warm staged protocol.
  /// AlreadyExists when the id is taken.
  Status AddShard(const std::string& shard_id);

  /// Deployed scenarios with no live replica left — requests to these fail
  /// until a re-join or re-deploy; the telemetry /healthz 503 signal.
  std::vector<std::string> UnservableScenarios() const;

  std::vector<std::string> ShardIds() const;
  int NumLiveShards() const;
  /// The worker under `shard_id`, dead or alive; nullptr when unknown.
  WorkerShard* shard(const std::string& shard_id) const
      ALT_EXCLUDES(state_mu_);

  /// The scenario's current replica group (empty when unknown).
  std::vector<std::string> ReplicasOf(const std::string& scenario) const;
  /// The scenario's broadcast version; 0 when unknown.
  uint64_t VersionOf(const std::string& scenario) const;

  /// Shard-health breakers ("shard:<id>") plus the worst per-scenario
  /// engine breaker state across shards — the telemetry /healthz view.
  std::map<std::string, resilience::BreakerState> BreakerStates() const;

  /// max/mean owner share over live shards and deployed scenarios (1.0 =
  /// uniform); also published to the routing_imbalance gauge.
  double RoutingImbalance() const;

  Result<LatencyStats> GetLatencyStats(const std::string& scenario) const;
  Result<int64_t> FlopsPerSample(const std::string& scenario) const;
  Status ExportBundle(const std::string& scenario,
                      const std::string& path) const;

  obs::MetricsRegistry* registry() const { return registry_; }
  const CoordinatorOptions& options() const { return options_; }

 private:
  struct ScenarioEntry {
    uint64_t version = 0;
    /// The snapshot every replica serves; rebalances and re-joins publish
    /// this same pointer.
    ModelServer::Snapshot model;
    bool hot = false;
    bool everywhere = false;
    std::vector<std::string> replicas;
  };

  /// One request's trip through the route/failover loop.
  struct Trip {
    std::string scenario;
    data::Batch row;  // The request's own batch on the EnqueuePredict path.
    const data::Batch* batch = nullptr;  // &row, or the caller's batch.
    bool coalesce = false;
    obs::RequestContext ctx;
    PredictCallback done;
    /// This round's replicas in failover order, with their breakers.
    std::vector<std::pair<WorkerShard*, resilience::CircuitBreaker*>>
        candidates;
    Admission admission = Admission::kNormal;
    size_t next = 0;  // Next candidate of this round.
    int round = 0;
    bool rebalanced = false;  // A shard left the ring during this round.
    Status last;              // The answer if no attempt succeeds.
    double attempt_us = 0.0;  // Start of the current attempt, when sampled.
  };

  /// Every worker, dead or alive.
  std::vector<WorkerShard*> Workers() const ALT_EXCLUDES(state_mu_);
  /// Sets the trip's candidates in failover order: power-of-two-choices on
  /// queue depth for a sync trip, group order (batching locality) for a
  /// coalescable one. Dead shards stay listed so the loop triggers the
  /// rebalance. Hot / everywhere scenarios are kCritical (shed last).
  void RankReplicas(Trip* trip) ALT_EXCLUDES(state_mu_);
  /// The route/failover loop: tries candidates until the trip finishes or
  /// a shard queues its task (whose callback continues the loop).
  void RouteTrip(std::shared_ptr<Trip> trip)
      ALT_EXCLUDES(control_mu_, state_mu_);
  /// Books one attempt's outcome (breaker, counters, rebalance, segments).
  /// A `shared` outcome repeats an earlier passenger's of the same engine
  /// call and leaves the breaker and the failover count alone. True when
  /// the trip finished; false to try the next candidate.
  bool Settle(Trip* trip, WorkerShard* worker,
              resilience::CircuitBreaker* breaker,
              Result<std::vector<float>> result, bool shared)
      ALT_EXCLUDES(control_mu_, state_mu_);
  /// Ends a trip no attempt answered with its last status.
  void Finish(Trip* trip);
  /// Removes a failed shard from the ring and re-deploys its scenarios onto
  /// their new owners. Idempotent; serialized by control_mu_. Runs on the
  /// thread that saw the failure: a sync caller, or a shard dispatcher
  /// (from a completion callback), whose queue then waits for it. A shard
  /// already rebalanced away returns without control_mu_.
  void HandleShardDeath(const std::string& shard_id)
      ALT_EXCLUDES(control_mu_, state_mu_);
  void HandleShardDeathLocked(const std::string& shard_id)
      ALT_REQUIRES(control_mu_) ALT_EXCLUDES(state_mu_);
  /// The shared warm-admission protocol of RejoinShard/AddShard: breaker
  /// reset, publish of the final assignment's snapshots, then
  /// staged vnode admission with per-stage replica-table recompute.
  Status AdmitShardLocked(WorkerShard* worker)
      ALT_REQUIRES(control_mu_) ALT_EXCLUDES(state_mu_);
  /// Applies the plane's per-shard configuration (queue cap, shed
  /// watermarks) to a worker.
  void ConfigureWorker(WorkerShard* worker) const;
  /// Deploy/DeployEverywhere: prepares `model` into one snapshot,
  /// publishes it to every target, and commits the scenario entry on
  /// success.
  Status Broadcast(const std::string& scenario,
                   std::unique_ptr<models::BaseModel> model,
                   const DeployOptions& deploy_options, bool everywhere)
      ALT_EXCLUDES(control_mu_, state_mu_);
  int ReplicationFor(bool hot) const {
    return hot ? options_.hot_replication : options_.replication;
  }
  /// The scenario's snapshot; nullptr when not deployed.
  ModelServer::Snapshot SnapshotOf(const std::string& scenario) const
      ALT_EXCLUDES(state_mu_);
  /// The scenario's replica group: every ring shard for an everywhere
  /// deployment, else its replicas.
  std::vector<std::string> GroupLocked(const ScenarioEntry& entry) const
      ALT_REQUIRES(state_mu_);
  /// True while routing can still pick the shard: it is on the ring, or a
  /// replica group names it because its rebalance has not finished.
  bool RoutableLocked(const std::string& shard_id) const
      ALT_REQUIRES(state_mu_);
  /// Publishes and returns the routing_imbalance gauge's value.
  double PublishImbalanceLocked() const ALT_REQUIRES(state_mu_);

  CoordinatorOptions options_;
  const BatchingOptions batching_;
  obs::MetricsRegistry* registry_;
  resilience::Clock* clock_;

  mutable Mutex control_mu_;
  mutable Mutex state_mu_;
  /// Shards are never destroyed before the coordinator — a dead shard stays
  /// allocated (parked) so in-flight submits resolve safely, and a re-join
  /// revives it in place. The containers themselves grow at runtime
  /// (AddShard), so the maps are guarded; the pointed-to objects are stable
  /// and safe to use outside the lock.
  std::vector<std::unique_ptr<WorkerShard>> shards_ ALT_GUARDED_BY(state_mu_);
  std::map<std::string, WorkerShard*> shards_by_id_ ALT_GUARDED_BY(state_mu_);
  /// Shard-health breakers, one per shard.
  std::map<std::string, std::unique_ptr<resilience::CircuitBreaker>> breakers_
      ALT_GUARDED_BY(state_mu_);
  HashRing ring_ ALT_GUARDED_BY(state_mu_);
  std::map<std::string, ScenarioEntry> table_ ALT_GUARDED_BY(state_mu_);
  bool resilience_enabled_ ALT_GUARDED_BY(state_mu_) = false;
  ServingResilienceOptions resilience_ ALT_GUARDED_BY(state_mu_);
  resilience::Clock* resilience_clock_ ALT_GUARDED_BY(state_mu_) = nullptr;

  std::atomic<uint64_t> pick_counter_{0};
  /// Set by the destructor: trips stop retrying.
  std::atomic<bool> stopping_{false};

  obs::Counter* rebalance_events_ = nullptr;       // Owned by the registry.
  obs::Counter* rejoins_ = nullptr;                // Owned by the registry.
  obs::Counter* failovers_ = nullptr;              // Owned by the registry.
  obs::Counter* no_replica_available_ = nullptr;   // Owned by the registry.
  obs::Counter* admission_shed_ = nullptr;         // Owned by the registry.
  obs::Counter* admission_accepted_ = nullptr;     // Owned by the registry.
  obs::Gauge* routing_imbalance_ = nullptr;        // Owned by the registry.
  obs::Histogram* broadcast_ms_ = nullptr;         // Owned by the registry.
};

}  // namespace shard
}  // namespace serving
}  // namespace alt

#endif  // ALT_SRC_SERVING_SHARD_COORDINATOR_H_
