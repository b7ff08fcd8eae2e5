#include "src/serving/shard/coordinator.h"

#include <algorithm>
#include <utility>

#include "src/serving/model_store.h"
#include "src/util/logging.h"

namespace alt {
namespace serving {
namespace shard {

namespace {

/// splitmix64: spreads the pick counter into well-distributed sample
/// indices for power-of-two-choices (cheap, deterministic, lock-free).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

/// Books the wall time since `start_us` as `segment` of a sampled request.
void BookAttempt(const obs::RequestContext& ctx, double start_us,
                 const char* segment) {
  if (!ctx.sampled()) return;
  ctx.trace->AddSegment(segment, (obs::MonotonicMicros() - start_us) / 1e3);
}

}  // namespace

ShardCoordinator::ShardCoordinator(CoordinatorOptions options,
                                   obs::MetricsRegistry* registry,
                                   BatchingOptions batching)
    : options_(options),
      batching_(batching),
      registry_(registry != nullptr ? registry
                                    : &obs::MetricsRegistry::Global()),
      clock_(options.clock != nullptr ? options.clock
                                      : resilience::RealClock()),
      ring_(options.vnodes_per_shard),
      rebalance_events_(registry_->counter("serving/rebalance_events")),
      rejoins_(registry_->counter("serving/coordinator/rejoins")),
      failovers_(registry_->counter("serving/coordinator/failovers")),
      no_replica_available_(
          registry_->counter("serving/coordinator/no_replica_available")),
      admission_shed_(registry_->counter("serving/admission/shed")),
      admission_accepted_(registry_->counter("serving/admission/accepted")),
      routing_imbalance_(
          registry_->gauge("serving/coordinator/routing_imbalance")),
      broadcast_ms_(registry_->histogram("serving/coordinator/broadcast_ms")) {
  ALT_CHECK_GE(options_.num_shards, 1);
  if (options_.replication < 1) options_.replication = 1;
  if (options_.hot_replication < options_.replication) {
    options_.hot_replication = options_.replication;
  }
  if (options_.rejoin_stages < 1) options_.rejoin_stages = 1;
  if (options_.shed_low_watermark > options_.shed_high_watermark) {
    options_.shed_low_watermark = options_.shed_high_watermark;
  }
  MutexLock state(state_mu_);
  for (int i = 0; i < options_.num_shards; ++i) {
    const std::string id = "shard-" + std::to_string(i);
    auto worker = std::make_unique<WorkerShard>(id, registry_, batching_);
    ConfigureWorker(worker.get());
    shards_by_id_[id] = worker.get();
    shards_.push_back(std::move(worker));
    breakers_[id] = std::make_unique<resilience::CircuitBreaker>(
        "shard:" + id, options_.shard_breaker, /*clock=*/nullptr, registry_);
    ring_.AddShard(id);  // alt_lint: allow(L008): void HashRing::AddShard
  }
  PublishImbalanceLocked();
}

ShardCoordinator::~ShardCoordinator() {
  stopping_.store(true);
  // Every dispatcher stops before any member goes away: callbacks still
  // running read the table, the ring and the breakers.
  for (WorkerShard* worker : Workers()) worker->Stop();
}

std::vector<WorkerShard*> ShardCoordinator::Workers() const {
  MutexLock state(state_mu_);
  std::vector<WorkerShard*> out;
  for (const auto& worker : shards_) out.push_back(worker.get());
  return out;
}

void ShardCoordinator::ConfigureWorker(WorkerShard* worker) const {
  worker->set_max_queue_depth(options_.max_queue_depth_per_shard);
  worker->set_shed_watermarks(options_.shed_high_watermark,
                              options_.shed_low_watermark);
}

WorkerShard* ShardCoordinator::shard(const std::string& shard_id) const {
  MutexLock state(state_mu_);
  auto it = shards_by_id_.find(shard_id);
  return it == shards_by_id_.end() ? nullptr : it->second;
}

Status ShardCoordinator::Deploy(const std::string& scenario,
                                std::unique_ptr<models::BaseModel> model,
                                const DeployOptions& options) {
  return Broadcast(scenario, std::move(model), options, /*everywhere=*/false);
}

Status ShardCoordinator::DeployEverywhere(
    const std::string& scenario, std::unique_ptr<models::BaseModel> model,
    const DeployOptions& options) {
  return Broadcast(scenario, std::move(model), options, /*everywhere=*/true);
}

Status ShardCoordinator::Broadcast(const std::string& scenario,
                                   std::unique_ptr<models::BaseModel> model,
                                   const DeployOptions& deploy_options,
                                   bool everywhere) {
  ScenarioEntry entry;
  ALT_ASSIGN_OR_RETURN(entry.model,
                       ModelServer::Prepare(scenario, std::move(model),
                                            deploy_options, registry_));
  entry.hot = deploy_options.hot;
  entry.everywhere = everywhere;
  MutexLock control(control_mu_);
  std::vector<std::string> targets;
  {
    MutexLock state(state_mu_);
    auto it = table_.find(scenario);
    entry.version = (it != table_.end() ? it->second.version : 0) + 1;
    targets = everywhere ? ring_.Shards()
                         : ring_.RouteReplicas(scenario,
                                               ReplicationFor(entry.hot));
  }
  if (targets.empty()) {
    return Status::Unavailable("no live shards to deploy " + scenario);
  }
  obs::ScopedTimerMs timer(broadcast_ms_);
  Status first_error;
  for (const std::string& id : targets) {
    WorkerShard* target = shard(id);
    if (target == nullptr) continue;
    Status status =
        target->Deploy(scenario, entry.model, entry.version, deploy_options);
    if (status.ok()) {
      entry.replicas.push_back(id);
    } else if (first_error.ok()) {
      first_error = status;
    }
  }
  if (!first_error.ok()) {
    // Partial broadcast: replicas that swapped keep the new model at this
    // version, but the authoritative table stays at the previous version —
    // the next successful Deploy (same version number again) supersedes.
    return first_error;
  }
  if (entry.replicas.empty()) {
    return Status::Unavailable("no shard accepted deploy of " + scenario);
  }
  MutexLock state(state_mu_);
  table_[scenario] = std::move(entry);
  PublishImbalanceLocked();
  return Status::OK();
}

Status ShardCoordinator::Undeploy(const std::string& scenario) {
  MutexLock control(control_mu_);
  std::vector<std::string> targets;
  {
    MutexLock state(state_mu_);
    auto it = table_.find(scenario);
    if (it == table_.end()) {
      return Status::NotFound("scenario " + scenario + " not deployed");
    }
    if (it->second.everywhere) {
      for (const auto& [id, worker] : shards_by_id_) targets.push_back(id);
    } else {
      targets = it->second.replicas;
    }
    table_.erase(it);
    PublishImbalanceLocked();
  }
  for (const std::string& id : targets) {
    WorkerShard* worker = shard(id);
    if (worker == nullptr) continue;
    // A replica that never finished its deploy reports NotFound; that is
    // the desired end state, not an error.
    Status status = worker->engine()->Undeploy(scenario);
    if (!status.ok() && status.code() != StatusCode::kNotFound) {
      ALT_LOG(Warning) << "undeploy of " << scenario << " on " << id
                       << " failed: " << status.ToString();
    }
  }
  return Status::OK();
}

bool ShardCoordinator::IsDeployed(const std::string& scenario) const {
  MutexLock state(state_mu_);
  return table_.count(scenario) > 0;
}

std::vector<std::string> ShardCoordinator::Scenarios() const {
  MutexLock state(state_mu_);
  std::vector<std::string> out;
  out.reserve(table_.size());
  for (const auto& [scenario, entry] : table_) out.push_back(scenario);
  return out;
}

void ShardCoordinator::RankReplicas(Trip* trip) {
  auto& candidates = trip->candidates;
  candidates.clear();
  trip->admission = Admission::kNormal;
  MutexLock state(state_mu_);
  std::vector<std::string> ids;
  auto it = table_.find(trip->scenario);
  if (it != table_.end()) {
    ids = GroupLocked(it->second);
    // Hot and everywhere-deployed scenarios (the resilience fallback /
    // default paths among them) are the last traffic a loaded shard should
    // drop: they bypass the soft shed watermark.
    if (it->second.everywhere || it->second.hot) {
      trip->admission = Admission::kCritical;
    }
  } else if (resilience_enabled_ && !resilience_.default_scenario.empty()) {
    // Unknown scenario under resilience: route by ring hash anyway so the
    // shard engine's default-scenario degradation answers.
    ids = ring_.RouteReplicas(trip->scenario, options_.replication);
  }
  for (const std::string& id : ids) {
    candidates.emplace_back(shards_by_id_.at(id), breakers_.at(id).get());
  }
  if (!trip->coalesce && candidates.size() >= 2) {
    const uint64_t ticket =
        pick_counter_.fetch_add(1, std::memory_order_relaxed);
    const size_t n = candidates.size();
    size_t a = static_cast<size_t>(Mix64(ticket) % n);
    size_t b = static_cast<size_t>(Mix64(ticket ^ 0x5851f42d4c957f2dull) % n);
    if (a == b) b = (b + 1) % n;
    const bool a_wins = candidates[a].first->QueueDepth() <=
                        candidates[b].first->QueueDepth();
    std::swap(candidates[0], candidates[a_wins ? a : b]);
  }
}

Result<std::vector<float>> ShardCoordinator::Predict(
    const std::string& scenario, const data::Batch& batch,
    const obs::RequestContext& ctx) {
  // Request-linked span for sampled requests; its context parents the
  // shard's engine-call span so Perfetto shows one causal lane per request.
  obs::TraceSpan request_span("serving/coordinator/predict", ctx);
  Result<std::vector<float>> answer = std::vector<float>();
  auto trip = std::make_shared<Trip>();
  trip->scenario = scenario;
  trip->batch = &batch;
  trip->ctx = request_span.context();
  trip->done = [&answer](Result<std::vector<float>> result) {  // Inline.
    answer = std::move(result);
  };
  RouteTrip(std::move(trip));
  return answer;
}

void ShardCoordinator::EnqueuePredict(const std::string& scenario,
                                      data::Batch row,
                                      const obs::RequestContext& ctx,
                                      PredictCallback done) {
  auto trip = std::make_shared<Trip>();
  trip->scenario = scenario;
  trip->row = std::move(row);
  trip->batch = &trip->row;
  trip->coalesce = true;
  trip->ctx = ctx;
  trip->done = std::move(done);
  RouteTrip(std::move(trip));
}

void ShardCoordinator::RouteTrip(std::shared_ptr<Trip> trip) {
  for (;;) {
    if (trip->next == trip->candidates.size()) {
      // Round over. Only a rebalance can change the candidates; then the
      // next round re-routes on the shrunken ring (at most num_shards extra
      // rounds) — the zero-lost-requests contract.
      if (trip->round > 0 &&
          (!trip->rebalanced || trip->round > options_.num_shards)) {
        Finish(trip.get());
        return;
      }
      ++trip->round;
      trip->rebalanced = false;
      trip->next = 0;
      {
        obs::SegmentTimer route_timer(trip->ctx, obs::segment::kRoute);
        RankReplicas(trip.get());
      }
      if (trip->candidates.empty()) {
        Finish(trip.get());
        return;
      }
    }
    const auto [worker, breaker] = trip->candidates[trip->next++];
    // A failed attempt is booked as failover or shed_requeue; the shard
    // books the successful one.
    if (trip->ctx.sampled()) trip->attempt_us = obs::MonotonicMicros();
    if (worker->dead()) {
      HandleShardDeath(worker->id());
      trip->rebalanced = true;
      trip->last = Status::Unavailable("shard " + worker->id() + " is dead");
      BookAttempt(trip->ctx, trip->attempt_us, obs::segment::kFailover);
      continue;
    }
    if (!breaker->AllowRequest()) {
      trip->last =
          Status::Unavailable("shard " + worker->id() + " breaker open");
      BookAttempt(trip->ctx, trip->attempt_us, obs::segment::kFailover);
      continue;
    }
    if (!trip->coalesce) {  // Scored inline, on the caller's thread.
      auto scores = worker->Predict(trip->scenario, *trip->batch,
                                    trip->admission, trip->ctx);
      if (Settle(trip.get(), worker, breaker, std::move(scores), false)) return;
      continue;
    }
    Trip* raw = trip.get();
    // Once the shard accepts the task, the trip belongs to its callback.
    const Status admitted = worker->Enqueue(
        raw->scenario, raw->batch, raw->admission, raw->ctx,
        [this, trip, worker, breaker](Result<std::vector<float>> result,
                                      bool shared) {
          if (!Settle(trip.get(), worker, breaker, std::move(result),
                      shared)) {
            RouteTrip(trip);
          }
        });
    if (admitted.ok() ||
        Settle(raw, worker, breaker, admitted, /*shared=*/false)) {
      return;
    }
  }
}

bool ShardCoordinator::Settle(Trip* trip, WorkerShard* worker,
                              resilience::CircuitBreaker* breaker,
                              Result<std::vector<float>> result,
                              bool shared) {
  if (result.ok()) {
    if (!shared) breaker->RecordSuccess();
    admission_accepted_->Add(1);
    trip->done(std::move(result));
    return true;
  }
  const Status status = result.status();
  if (status.code() == StatusCode::kNotFound ||
      status.code() == StatusCode::kInvalidArgument ||
      stopping_.load()) {
    // Deploy-state error or a malformed request, identical on every
    // replica — not a shard health signal, and failing over would only
    // repeat it. A stopping coordinator retries nothing.
    trip->done(std::move(result));
    return true;
  }
  trip->last = status;
  if (status.code() == StatusCode::kResourceExhausted) {
    // Admission shed: the shard is alive but over capacity. Another
    // replica may still have headroom, so keep trying the group — but this
    // is load, not failure: no breaker damage, no rebalance.
    BookAttempt(trip->ctx, trip->attempt_us, obs::segment::kShedRequeue);
    return false;
  }
  if (!shared) {
    // One engine call is one health signal, however many rows rode in it.
    breaker->RecordFailure();
    failovers_->Add(1);
  }
  if (worker->dead() ||
      breaker->state() == resilience::BreakerState::kOpen) {
    HandleShardDeath(worker->id());
    trip->rebalanced = true;
  }
  BookAttempt(trip->ctx, trip->attempt_us, obs::segment::kFailover);
  return false;
}

void ShardCoordinator::Finish(Trip* trip) {
  if (trip->last.ok()) {
    trip->last = Status::NotFound("scenario " + trip->scenario +
                                  " not deployed");
  }
  if (trip->last.code() == StatusCode::kResourceExhausted) {
    // Every live replica shed the request: reject it loudly (the caller
    // sees kResourceExhausted, never a silent drop) and count it.
    admission_shed_->Add(1);
  } else if (trip->last.code() != StatusCode::kNotFound) {
    no_replica_available_->Add(1);
  }
  trip->done(trip->last);
}

void ShardCoordinator::EnableResilience(
    const ServingResilienceOptions& options, resilience::Clock* clock) {
  MutexLock control(control_mu_);
  for (WorkerShard* worker : Workers()) {
    worker->engine()->ConfigureResilience(options, clock);
  }
  MutexLock state(state_mu_);
  resilience_ = options;
  resilience_enabled_ = true;
  resilience_clock_ = clock;
}

Status ShardCoordinator::KillShard(const std::string& shard_id) {
  WorkerShard* worker = shard(shard_id);
  if (worker == nullptr) return Status::NotFound("unknown shard " + shard_id);
  worker->Kill();
  return Status::OK();
}

Status ShardCoordinator::EvictShard(const std::string& shard_id) {
  if (shard(shard_id) == nullptr) {
    return Status::NotFound("unknown shard " + shard_id);
  }
  // HandleShardDeath kills the worker and is idempotent, so a supervisor
  // eviction and a data-plane-triggered rebalance can race harmlessly.
  HandleShardDeath(shard_id);
  return Status::OK();
}

void ShardCoordinator::HandleShardDeath(const std::string& shard_id) {
  {
    // Every request failed by the shard lands here; once it is rebalanced
    // away they return without waiting on control_mu_, which a re-join
    // holds through its staged pauses.
    MutexLock state(state_mu_);
    if (!RoutableLocked(shard_id)) return;
  }
  MutexLock control(control_mu_);
  HandleShardDeathLocked(shard_id);
}

void ShardCoordinator::HandleShardDeathLocked(const std::string& shard_id) {
  struct Affected {
    std::string scenario;
    uint64_t version = 0;
    ModelServer::Snapshot model;
    std::vector<std::string> new_replicas;
    std::vector<std::string> add_targets;
  };
  std::vector<Affected> affected;
  {
    MutexLock state(state_mu_);
    if (!ring_.HasShard(shard_id)) return;  // Already rebalanced away.
    ring_.RemoveShard(shard_id);
    for (const auto& [scenario, entry] : table_) {
      if (!entry.everywhere && !Contains(entry.replicas, shard_id)) continue;
      Affected item{scenario, entry.version, entry.model, {}, {}};
      if (entry.everywhere) {
        // Every remaining shard already holds it; just shrink the group.
        item.new_replicas = ring_.Shards();
      } else {
        item.new_replicas =
            ring_.RouteReplicas(scenario, ReplicationFor(entry.hot));
        for (const std::string& id : item.new_replicas) {
          if (!Contains(entry.replicas, id)) item.add_targets.push_back(id);
        }
      }
      affected.push_back(std::move(item));
    }
  }
  rebalance_events_->Add(1);
  // The shard is leaving the ring (until a supervisor-driven RejoinShard
  // re-admits it), so park its worker even when the trigger was an open
  // breaker rather than an explicit Kill: requests in flight complete
  // Unavailable and fail over.
  WorkerShard* victim = shard(shard_id);
  if (victim != nullptr) victim->Kill();
  // Publishes run outside state_mu_ so routing stays readable; control_mu_
  // keeps the table stable meanwhile.
  for (Affected& item : affected) {
    for (const std::string& target : item.add_targets) {
      WorkerShard* worker = shard(target);
      if (worker == nullptr || worker->dead()) continue;
      const Status status =
          worker->Deploy(item.scenario, item.model, item.version);
      if (!status.ok()) {
        ALT_LOG(Warning) << "rebalance re-deploy of " << item.scenario
                         << " onto " << target
                         << " failed: " << status.ToString();
      }
    }
  }
  MutexLock state(state_mu_);
  for (Affected& item : affected) {
    // control_mu_ has kept every entry as it was snapshotted.
    auto it = table_.find(item.scenario);
    if (it != table_.end()) it->second.replicas = std::move(item.new_replicas);
  }
  PublishImbalanceLocked();
}

Status ShardCoordinator::RejoinShard(const std::string& shard_id) {
  MutexLock control(control_mu_);
  WorkerShard* worker = shard(shard_id);
  if (worker == nullptr) return Status::NotFound("unknown shard " + shard_id);
  if (!worker->dead()) {
    return Status::FailedPrecondition("shard " + shard_id +
                                      " is live; nothing to rejoin");
  }
  {
    // A killed shard whose death no traffic ever observed may still be on
    // the ring; evict it first so the admission below starts from a clean
    // slate (and its scenarios have live replicas to fail over to).
    bool on_ring;
    {
      MutexLock state(state_mu_);
      on_ring = ring_.HasShard(shard_id);
    }
    if (on_ring) HandleShardDeathLocked(shard_id);
  }
  ALT_RETURN_IF_ERROR(worker->Revive());
  ConfigureWorker(worker);
  return AdmitShardLocked(worker);
}

Status ShardCoordinator::AddShard(const std::string& shard_id) {
  MutexLock control(control_mu_);
  if (shard(shard_id) != nullptr) {
    return Status::AlreadyExists("shard " + shard_id + " already exists");
  }
  auto owned = std::make_unique<WorkerShard>(shard_id, registry_, batching_);
  WorkerShard* worker = owned.get();
  ConfigureWorker(worker);
  bool configure_resilience = false;
  ServingResilienceOptions resilience;
  resilience::Clock* resilience_clock = nullptr;
  {
    MutexLock state(state_mu_);
    shards_by_id_[shard_id] = worker;
    shards_.push_back(std::move(owned));
    breakers_[shard_id] = std::make_unique<resilience::CircuitBreaker>(
        "shard:" + shard_id, options_.shard_breaker, /*clock=*/nullptr,
        registry_);
    configure_resilience = resilience_enabled_;
    resilience = resilience_;
    resilience_clock = resilience_clock_;
  }
  if (configure_resilience) {
    worker->engine()->ConfigureResilience(resilience, resilience_clock);
  }
  return AdmitShardLocked(worker);
}

Status ShardCoordinator::AdmitShardLocked(WorkerShard* worker) {
  const std::string& id = worker->id();
  // Final assignment: every scenario the fully-admitted ring will place on
  // this shard (plus all everywhere deployments). Computed on a ring COPY —
  // the live ring is untouched until the models are in place.
  std::vector<std::pair<std::string, ScenarioEntry>> assigned;
  {
    MutexLock state(state_mu_);
    // The shard must not inherit the failure streak that evicted it.
    breakers_.at(id)->Reset();
    HashRing future_ring = ring_;
    future_ring.AddShard(id);  // alt_lint: allow(L008): void HashRing::AddShard
    for (const auto& [scenario, entry] : table_) {
      const int want = ReplicationFor(entry.hot);
      if (entry.everywhere ||
          Contains(future_ring.RouteReplicas(scenario, want), id)) {
        assigned.emplace_back(scenario, entry);
      }
    }
  }
  // Warm publish of the current snapshots, BEFORE any ring mutation: a key
  // never routes to this shard until the model it needs is already swapped
  // in. Any failure aborts the admission with the ring unchanged (models
  // already published are harmless — unrouted).
  for (const auto& [scenario, entry] : assigned) {
    ALT_RETURN_IF_ERROR(worker->Deploy(scenario, entry.model, entry.version));
  }
  // Staged vnode admission: vnode indices are stable, so ownership grows
  // monotonically stage over stage and each stage moves only the keys
  // adjacent to its new points. Per stage, every replica group is
  // recomputed from the ring; membership can only change by this shard
  // entering a group (possibly displacing its last member), and this shard
  // already holds every model its final groups need — so the table never
  // names a replica without the model.
  const int stages = options_.rejoin_stages;
  const int full = options_.vnodes_per_shard;
  for (int stage = 1; stage <= stages; ++stage) {
    const int target = stage == stages ? full : full * stage / stages;
    {
      MutexLock state(state_mu_);
      ring_.AddShardVnodes(id, target);
      for (auto& [scenario, entry] : table_) {
        if (entry.everywhere) continue;
        entry.replicas =
            ring_.RouteReplicas(scenario, ReplicationFor(entry.hot));
      }
      PublishImbalanceLocked();
    }
    // Drain pause between stages: in-flight traffic settles onto the new
    // routing before the next batch of keys moves.
    if (stage < stages && options_.rejoin_stage_pause_ms > 0.0) {
      clock_->SleepMs(options_.rejoin_stage_pause_ms);
    }
  }
  rejoins_->Add(1);
  return Status::OK();
}

std::vector<std::string> ShardCoordinator::UnservableScenarios() const {
  std::vector<std::string> out;
  MutexLock state(state_mu_);
  for (const auto& [scenario, entry] : table_) {
    bool live = false;
    for (const std::string& id : GroupLocked(entry)) {
      auto it = shards_by_id_.find(id);
      live = live || (it != shards_by_id_.end() && !it->second->dead());
    }
    if (!live) out.push_back(scenario);
  }
  return out;
}

std::vector<std::string> ShardCoordinator::ShardIds() const {
  MutexLock state(state_mu_);
  std::vector<std::string> out;
  out.reserve(shards_by_id_.size());
  for (const auto& [id, worker] : shards_by_id_) out.push_back(id);
  return out;
}

int ShardCoordinator::NumLiveShards() const {
  int live = 0;
  for (WorkerShard* worker : Workers()) live += worker->dead() ? 0 : 1;
  return live;
}

std::vector<std::string> ShardCoordinator::ReplicasOf(
    const std::string& scenario) const {
  MutexLock state(state_mu_);
  auto it = table_.find(scenario);
  if (it == table_.end()) return {};
  return GroupLocked(it->second);
}

uint64_t ShardCoordinator::VersionOf(const std::string& scenario) const {
  MutexLock state(state_mu_);
  auto it = table_.find(scenario);
  return it == table_.end() ? 0 : it->second.version;
}

std::map<std::string, resilience::BreakerState>
ShardCoordinator::BreakerStates() const {
  std::map<std::string, resilience::BreakerState> out;
  {
    MutexLock state(state_mu_);
    for (const auto& [id, breaker] : breakers_) {
      out["shard:" + id] = breaker->state();
    }
  }
  for (WorkerShard* worker : Workers()) {
    for (const auto& [scenario, state] : worker->engine()->BreakerStates()) {
      auto it = out.find(scenario);
      // Worst state wins across shards (kOpen > kHalfOpen > kClosed).
      if (it == out.end() ||
          static_cast<int>(state) > static_cast<int>(it->second)) {
        out[scenario] = state;
      }
    }
  }
  return out;
}

std::vector<std::string> ShardCoordinator::GroupLocked(
    const ScenarioEntry& entry) const {
  return entry.everywhere ? ring_.Shards() : entry.replicas;
}

bool ShardCoordinator::RoutableLocked(const std::string& shard_id) const {
  if (ring_.HasShard(shard_id)) return true;
  for (const auto& [scenario, entry] : table_) {
    // Everywhere groups follow the ring.
    if (!entry.everywhere && Contains(entry.replicas, shard_id)) return true;
  }
  return false;
}

double ShardCoordinator::PublishImbalanceLocked() const {
  std::map<std::string, int64_t> owned;
  for (const std::string& id : ring_.Shards()) owned[id] = 0;
  int64_t total = 0;
  int64_t max_owned = 0;
  for (const auto& [scenario, entry] : table_) {
    if (entry.everywhere || entry.replicas.empty()) continue;
    auto it = owned.find(entry.replicas.front());
    if (it == owned.end()) continue;
    max_owned = std::max(max_owned, ++it->second);
    ++total;
  }
  // max / mean owned scenarios per live shard; 1.0 when nothing is owned.
  const double imbalance =
      total == 0 ? 1.0
                 : static_cast<double>(max_owned) *
                       static_cast<double>(owned.size()) /
                       static_cast<double>(total);
  routing_imbalance_->Set(imbalance);
  return imbalance;
}

double ShardCoordinator::RoutingImbalance() const {
  MutexLock state(state_mu_);
  return PublishImbalanceLocked();
}

Result<LatencyStats> ShardCoordinator::GetLatencyStats(
    const std::string& scenario) const {
  {
    MutexLock state(state_mu_);
    if (table_.count(scenario) == 0) {
      return Status::NotFound("scenario " + scenario + " not deployed");
    }
  }
  // All shard engines share the coordinator registry, so the per-scenario
  // histogram already aggregates latencies across the whole fleet.
  return ModelServer::RegistryLatencyStats(*registry_, scenario);
}

ModelServer::Snapshot ShardCoordinator::SnapshotOf(
    const std::string& scenario) const {
  MutexLock state(state_mu_);
  auto it = table_.find(scenario);
  return it == table_.end() ? nullptr : it->second.model;
}

Result<int64_t> ShardCoordinator::FlopsPerSample(
    const std::string& scenario) const {
  const ModelServer::Snapshot model = SnapshotOf(scenario);
  if (model == nullptr) {
    return Status::NotFound("scenario " + scenario + " not deployed");
  }
  return model->FlopsPerSample();
}

Status ShardCoordinator::ExportBundle(const std::string& scenario,
                                      const std::string& path) const {
  const ModelServer::Snapshot model = SnapshotOf(scenario);
  if (model == nullptr) {
    return Status::NotFound("scenario " + scenario + " not deployed");
  }
  // The snapshot keeps its fp32 weights beside any int8 copy, so the bundle
  // is the one the caller deployed.
  return SaveModelBundleToFile(model.get(), path);
}

}  // namespace shard
}  // namespace serving
}  // namespace alt
