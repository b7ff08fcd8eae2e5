#include "src/serving/serving_client.h"

#include <chrono>
#include <thread>
#include <utility>

#include "src/util/logging.h"

namespace alt {
namespace serving {

namespace {

shard::CoordinatorOptions ToCoordinatorOptions(
    const ServingClient::Options& options) {
  shard::CoordinatorOptions out;
  out.num_shards = options.num_shards;
  out.vnodes_per_shard = options.vnodes_per_shard;
  out.replication = options.replication;
  out.hot_replication = options.hot_replication;
  out.shard_breaker = options.shard_breaker;
  out.max_queue_depth_per_shard = options.max_queue_depth_per_shard;
  out.shed_high_watermark = options.shed_high_watermark;
  out.shed_low_watermark = options.shed_low_watermark;
  out.rejoin_stages = options.rejoin_stages;
  out.rejoin_stage_pause_ms = options.rejoin_stage_pause_ms;
  out.clock = options.clock;
  return out;
}

obs::RequestTracer::Options ToTracerOptions(
    const ServingClient::Options& options, obs::MetricsRegistry* registry) {
  obs::RequestTracer::Options out = options.trace;
  if (out.registry == nullptr) out.registry = registry;
  return out;
}

obs::SloTracker::Options ToSloOptions(const ServingClient::Options& options,
                                      obs::MetricsRegistry* registry) {
  obs::SloTracker::Options out = options.slo;
  if (out.registry == nullptr) out.registry = registry;
  if (out.now_ms == nullptr && options.clock != nullptr) {
    // FakeClock-driven tests advance SLO burn windows through the same
    // injected clock that paces re-join and the supervisor.
    out.now_ms = [clock = options.clock] { return clock->NowMs(); };
  }
  return out;
}

}  // namespace

ServingClient::ServingClient(Options options, obs::MetricsRegistry* registry)
    : options_(std::move(options)),
      registry_(registry != nullptr ? registry
                                    : &obs::MetricsRegistry::Global()),
      tracer_(std::make_unique<obs::RequestTracer>(
          ToTracerOptions(options_, registry_))),
      slo_(std::make_unique<obs::SloTracker>(
          ToSloOptions(options_, registry_))),
      batch_latency_ms_(
          registry_->histogram("serving/batch_predictor/request_latency_ms")),
      shard_unavailable_(registry_->counter("serving/shard_unavailable")),
      coordinator_(ToCoordinatorOptions(options_), registry_,
                   options_.batching) {
  if (options_.enable_resilience) {
    coordinator_.EnableResilience(options_.resilience, options_.clock);
  }
  if (options_.enable_supervisor) {
    shard::SupervisorOptions supervisor = options_.supervisor;
    if (supervisor.clock == nullptr) supervisor.clock = options_.clock;
    supervisor_ = std::make_unique<shard::ShardSupervisor>(
        &coordinator_, supervisor, registry_);
    supervisor_->Start();  // alt_lint: allow(L008): void ShardSupervisor::Start
  }
}

ServingClient::ServingClient() : ServingClient(Options()) {}

ServingClient::~ServingClient() = default;

Status ServingClient::Deploy(const std::string& scenario,
                             std::unique_ptr<models::BaseModel> model,
                             const DeployOptions& options) {
  ALT_RETURN_IF_ERROR(coordinator_.Deploy(scenario, std::move(model), options));
  slo_->SetObjective(scenario, options.slo);
  return Status::OK();
}

Status ServingClient::DeployEverywhere(const std::string& scenario,
                                       std::unique_ptr<models::BaseModel> model,
                                       const DeployOptions& options) {
  ALT_RETURN_IF_ERROR(
      coordinator_.DeployEverywhere(scenario, std::move(model), options));
  slo_->SetObjective(scenario, options.slo);
  return Status::OK();
}

Status ServingClient::Undeploy(const std::string& scenario) {
  return coordinator_.Undeploy(scenario);
}

bool ServingClient::IsDeployed(const std::string& scenario) const {
  return coordinator_.IsDeployed(scenario);
}

std::vector<std::string> ServingClient::Scenarios() const {
  return coordinator_.Scenarios();
}

Result<std::vector<float>> ServingClient::Predict(const std::string& scenario,
                                                  const data::Batch& batch) {
  const obs::RequestContext ctx = tracer_->StartRequest(scenario);
  Result<std::vector<float>> result = coordinator_.Predict(scenario, batch, ctx);
  const double total_ms = tracer_->CompleteRequest(ctx, result.status());
  RecordOutcome(scenario, total_ms, result.status());
  return result;
}

std::future<Result<float>> ServingClient::EnqueuePredict(
    const std::string& scenario, Tensor profile,
    std::vector<int64_t> behavior) {
  const obs::RequestContext ctx = tracer_->StartRequest(scenario);
  data::Batch row;
  row.batch_size = 1;
  row.seq_len = static_cast<int64_t>(behavior.size());
  row.profiles = profile.Reshape({1, profile.numel()});
  row.behaviors = std::move(behavior);
  auto promise = std::make_shared<std::promise<Result<float>>>();
  std::future<Result<float>> future = promise->get_future();
  pending_batch_.fetch_add(1, std::memory_order_relaxed);
  coordinator_.EnqueuePredict(
      scenario, std::move(row), ctx,
      [this, scenario, ctx, promise](Result<std::vector<float>> scores) {
        // Runs before the shard's queue depth drops for this request, so
        // a reader that waits for idle shards sees it fully accounted.
        const Status status = scores.status();
        const double latency_ms = tracer_->CompleteRequest(ctx, status);
        batch_latency_ms_->Observe(latency_ms);
        if (status.code() == StatusCode::kUnavailable) {
          shard_unavailable_->Add(1);
        }
        RecordOutcome(scenario, latency_ms, status);
        pending_batch_.fetch_sub(1, std::memory_order_relaxed);
        promise->set_value(scores.ok() ? Result<float>(scores.value()[0])
                                       : Result<float>(status));
      });
  return future;
}

void ServingClient::DrainBatchQueues() const {
  while (pending_batch_.load(std::memory_order_relaxed) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void ServingClient::EnableResilience(const ServingResilienceOptions& options,
                                     resilience::Clock* clock) {
  coordinator_.EnableResilience(options, clock);
}

std::map<std::string, resilience::BreakerState> ServingClient::BreakerStates()
    const {
  return coordinator_.BreakerStates();
}

ServingClient::Stats ServingClient::GetStats() const {
  Stats stats;
  const std::vector<std::string> ids = coordinator_.ShardIds();
  stats.num_shards = static_cast<int>(ids.size());
  stats.live_shards = coordinator_.NumLiveShards();
  stats.routing_imbalance = coordinator_.RoutingImbalance();
  for (const std::string& id : ids) {
    const shard::WorkerShard* worker = coordinator_.shard(id);
    if (worker != nullptr) stats.requests_served += worker->RequestsServed();
  }
  stats.pending_batch_requests = pending_batch_.load(std::memory_order_relaxed);
  stats.traced_requests = tracer_->traced_requests();
  stats.slowest_request_ms = tracer_->slowest_ms();
  stats.scenarios_burning = static_cast<int>(slo_->Burning().size());
  return stats;
}

obs::Histogram* ServingClient::LatencyHistogramFor(
    const std::string& scenario) {
  MutexLock lock(latency_mu_);
  auto it = latency_hists_.find(scenario);
  if (it == latency_hists_.end()) {
    it = latency_hists_
             .emplace(scenario, registry_->histogram(
                                    "serving/request/latency_ms/" + scenario))
             .first;
  }
  return it->second;
}

void ServingClient::RecordOutcome(const std::string& scenario,
                                  double latency_ms, const Status& status) {
  if (status.code() == StatusCode::kNotFound) {  // No per-name state.
    registry_->counter("serving/request/not_found")->Add(1);
    return;
  }
  if (registry_->enabled()) {
    LatencyHistogramFor(scenario)->Observe(latency_ms);
  }
  if (status.code() == StatusCode::kInvalidArgument) {
    // A malformed request is the caller's fault, not the scenario's: it is
    // counted apart and burns none of the scenario's SLO budget.
    registry_->counter("serving/request/invalid/" + scenario)->Add(1);
    return;
  }
  slo_->Record(scenario, latency_ms, status.ok());
}

Result<LatencyStats> ServingClient::GetLatencyStats(
    const std::string& scenario) const {
  return coordinator_.GetLatencyStats(scenario);
}

Result<int64_t> ServingClient::FlopsPerSample(
    const std::string& scenario) const {
  return coordinator_.FlopsPerSample(scenario);
}

Status ServingClient::ExportBundle(const std::string& scenario,
                                   const std::string& path) const {
  return coordinator_.ExportBundle(scenario, path);
}

std::vector<std::string> ServingClient::ShardIds() const {
  return coordinator_.ShardIds();
}

int ServingClient::NumLiveShards() const {
  return coordinator_.NumLiveShards();
}

Status ServingClient::KillShard(const std::string& shard_id) {
  return coordinator_.KillShard(shard_id);
}

Status ServingClient::RejoinShard(const std::string& shard_id) {
  return coordinator_.RejoinShard(shard_id);
}

Status ServingClient::AddShard(const std::string& shard_id) {
  return coordinator_.AddShard(shard_id);
}

ServingClient::HealthReport ServingClient::GetHealth() const {
  HealthReport report;
  report.unservable_scenarios = coordinator_.UnservableScenarios();
  report.healthy = report.unservable_scenarios.empty();
  for (const std::string& id : coordinator_.ShardIds()) {
    const shard::WorkerShard* worker = coordinator_.shard(id);
    report.shard_states[id] =
        (worker != nullptr && worker->dead()) ? "dead" : "live";
  }
  // The supervisor's view is richer (suspect / rejoining); overlay it.
  if (supervisor_ != nullptr) {
    for (const auto& [id, health] : supervisor_->States()) {
      report.shard_states[id] = shard::ShardHealthName(health);
    }
  }
  for (const auto& [id, state] : report.shard_states) {
    if (state != "live") report.degraded = true;
  }
  return report;
}

}  // namespace serving
}  // namespace alt
