#include "src/serving/model_server.h"

#include <algorithm>
#include <cmath>

#include "src/obs/memory_tracker.h"
#include "src/obs/trace.h"
#include "src/resilience/fault_injection.h"

namespace alt {
namespace serving {

ModelServer::ModelServer(obs::MetricsRegistry* registry)
    : registry_(registry != nullptr ? registry
                                    : &obs::MetricsRegistry::Global()) {}

std::string ModelServer::LatencyMetricName(const std::string& scenario) {
  return "serving/model_server/latency_ms/" + scenario;
}

Result<ModelServer::Snapshot> ModelServer::Prepare(
    const std::string& scenario, std::unique_ptr<models::BaseModel> model,
    const DeployOptions& options, obs::MetricsRegistry* registry) {
  if (model == nullptr) return Status::InvalidArgument("null model");
  if (registry == nullptr) registry = &obs::MetricsRegistry::Global();
  model->SetTraining(false);
  if (options.quantize_int8) {
    // Score the calibration batch with the fp32 weights first: those probs
    // are the distillation soft labels the quantized model is checked
    // against.
    std::vector<float> soft_labels;
    if (options.calibration != nullptr) {
      soft_labels = model->PredictProbs(*options.calibration);
    }
    model->QuantizeForServing();
    registry->counter("serving/quantized_deploys")->Add();
    if (options.calibration != nullptr) {
      const std::vector<float> int8_probs =
          model->PredictProbs(*options.calibration);
      double max_delta = 0.0;
      for (size_t i = 0; i < soft_labels.size(); ++i) {
        max_delta = std::max(
            max_delta, std::fabs(static_cast<double>(int8_probs[i]) -
                                 static_cast<double>(soft_labels[i])));
      }
      registry->gauge("serving/quantization/max_prob_delta/" + scenario)
          ->Set(max_delta);
    }
  }
  return Snapshot(std::move(model));
}

Status ModelServer::Deploy(const std::string& scenario,
                           std::unique_ptr<models::BaseModel> model,
                           const DeployOptions& options) {
  ALT_ASSIGN_OR_RETURN(Snapshot snapshot,
                       Prepare(scenario, std::move(model), options, registry_));
  return Publish(scenario, std::move(snapshot), Version(scenario) + 1,
                 options);
}

Status ModelServer::Publish(const std::string& scenario, Snapshot model,
                            uint64_t version, const DeployOptions& options) {
  if (model == nullptr) return Status::InvalidArgument("null model");
  if (model->training()) {
    // PredictProbs runs in the model's own mode, and a training-mode model
    // is not safe to share (a supernet samples its Gumbel noise from
    // member state).
    return Status::InvalidArgument("snapshot of " + scenario +
                                   " is in training mode; Prepare it first");
  }
  if (!options.retry_transient) {
    return PublishAttempt(scenario, model, version);
  }
  resilience::RetryPolicy policy(options.retry);
  return policy.Run("serving deploy " + scenario, [&]() {
    return PublishAttempt(scenario, model, version);
  });
}

Status ModelServer::PublishAttempt(const std::string& scenario,
                                   const Snapshot& model, uint64_t version) {
  ALT_FAULT_RETURN_IF("serving/deploy");
  MutexLock lock(registry_mu_);
  auto it = deployments_.find(scenario);
  if (it == deployments_.end()) {
    Deployment deployment;
    deployment.latency_ms = registry_->histogram(LatencyMetricName(scenario));
    it = deployments_.emplace(scenario, std::move(deployment)).first;
  } else if (version < it->second.version) {
    return Status::FailedPrecondition(
        "stale deploy of " + scenario + " v" + std::to_string(version) +
        " (have v" + std::to_string(it->second.version) + ")");
  }
  it->second.version = version;
  it->second.model = model;
  return Status::OK();
}

uint64_t ModelServer::Version(const std::string& scenario) const {
  return Find(scenario).version;
}

ModelServer::Snapshot ModelServer::Model(const std::string& scenario) const {
  return Find(scenario).model;
}

void ModelServer::ConfigureResilience(ServingResilienceOptions options,
                                      resilience::Clock* clock) {
  auto policy = std::make_shared<Policy>();
  policy->options = std::move(options);
  policy->clock = clock != nullptr ? clock : resilience::RealClock();
  policy->fallbacks = registry_->counter("serving/fallbacks");
  policy->unknown_fallbacks =
      registry_->counter("serving/unknown_scenario_fallbacks");
  policy->deadline_exceeded =
      registry_->counter("serving/predict_deadline_exceeded");
  MutexLock lock(registry_mu_);
  policy_ = std::move(policy);
}

Result<resilience::BreakerState> ModelServer::GetBreakerState(
    const std::string& scenario) const {
  std::map<std::string, resilience::BreakerState> states = BreakerStates();
  auto it = states.find(scenario);
  if (it == states.end()) {
    return Status::NotFound("no breaker for scenario " + scenario);
  }
  return it->second;
}

std::map<std::string, resilience::BreakerState> ModelServer::BreakerStates()
    const {
  std::shared_ptr<Policy> policy;
  {
    MutexLock lock(registry_mu_);
    policy = policy_;
  }
  std::map<std::string, resilience::BreakerState> states;
  if (policy == nullptr) return states;
  MutexLock lock(policy->mu);
  for (const auto& [scenario, breaker] : policy->breakers) {
    states.emplace(scenario, breaker->state());
  }
  return states;
}

resilience::CircuitBreaker* ModelServer::BreakerFor(
    Policy* policy, const std::string& scenario) {
  MutexLock lock(policy->mu);
  std::unique_ptr<resilience::CircuitBreaker>& breaker =
      policy->breakers[scenario];
  if (breaker == nullptr) {
    breaker = std::make_unique<resilience::CircuitBreaker>(
        "serving/" + scenario, policy->options.breaker, policy->clock,
        registry_);
  }
  return breaker.get();
}

Status ModelServer::Undeploy(const std::string& scenario) {
  MutexLock lock(registry_mu_);
  if (deployments_.erase(scenario) == 0) {
    return Status::NotFound("scenario " + scenario);
  }
  return Status::OK();
}

bool ModelServer::IsDeployed(const std::string& scenario) const {
  MutexLock lock(registry_mu_);
  return deployments_.count(scenario) > 0;
}

std::vector<std::string> ModelServer::Scenarios() const {
  MutexLock lock(registry_mu_);
  std::vector<std::string> out;
  for (const auto& [name, deployment] : deployments_) out.push_back(name);
  return out;
}

ModelServer::Deployment ModelServer::Find(const std::string& scenario) const {
  MutexLock lock(registry_mu_);
  auto it = deployments_.find(scenario);
  return it == deployments_.end() ? Deployment() : it->second;
}

ModelServer::Deployment ModelServer::Resolve(
    const std::string& scenario, std::string* target,
    std::shared_ptr<Policy>* policy) const {
  *target = scenario;
  MutexLock lock(registry_mu_);
  *policy = policy_;
  auto it = deployments_.find(scenario);
  if (it == deployments_.end() && policy_ != nullptr &&
      !policy_->options.default_scenario.empty()) {
    it = deployments_.find(policy_->options.default_scenario);
    if (it != deployments_.end()) *target = it->first;
  }
  return it == deployments_.end() ? Deployment() : it->second;
}

Status ModelServer::ValidateRequest(const models::BaseModel& model,
                                    const data::Batch& batch) {
  const models::ModelConfig& config = model.config();
  if (batch.batch_size < 1 || batch.profiles.ndim() != 2 ||
      batch.profiles.size(0) != batch.batch_size ||
      batch.profiles.size(1) != config.profile_dim) {
    return Status::InvalidArgument(
        "profiles must be [batch_size, " +
        std::to_string(config.profile_dim) + "], got " +
        ShapeToString(batch.profiles.shape()) + " for batch_size " +
        std::to_string(batch.batch_size));
  }
  if (config.encoder == models::EncoderKind::kNone) return Status::OK();
  if (batch.seq_len != config.seq_len ||
      static_cast<int64_t>(batch.behaviors.size()) !=
          batch.batch_size * batch.seq_len) {
    return Status::InvalidArgument(
        "behaviors must be batch_size x seq_len " +
        std::to_string(config.seq_len) + ", got seq_len " +
        std::to_string(batch.seq_len) + " and " +
        std::to_string(batch.behaviors.size()) + " ids");
  }
  for (int64_t id : batch.behaviors) {
    if (id < 0 || id >= config.vocab_size) {
      return Status::InvalidArgument("behavior id " + std::to_string(id) +
                                     " outside vocabulary of " +
                                     std::to_string(config.vocab_size));
    }
  }
  return Status::OK();
}

Result<std::vector<float>> ModelServer::PredictOn(
    const Deployment& deployment, const data::Batch& batch) {
  ALT_FAULT_RETURN_IF("serving/predict");
  ALT_TRACE_SPAN(span, "serving/model_server/predict");
  obs::ScopedMemoryTag memory_tag("serving");
  obs::ScopedTimerMs timer(deployment.latency_ms);
  return deployment.model->PredictProbs(batch);
}

Result<std::vector<float>> ModelServer::FallbackPredict(
    const Policy& policy, const std::string& scenario,
    const data::Batch& batch) {
  policy.fallbacks->Add(1);
  const std::string& fallback_scenario = policy.options.fallback_scenario;
  if (!fallback_scenario.empty() && fallback_scenario != scenario) {
    const Deployment fallback = Find(fallback_scenario);
    if (fallback.model != nullptr) {
      Result<std::vector<float>> result = PredictOn(fallback, batch);
      if (result.ok()) return result;
      // The heavy model failed too (possibly an injected fault); degrade
      // one more step to the constant prior rather than surface an error.
    }
  }
  return std::vector<float>(static_cast<size_t>(batch.batch_size),
                            policy.options.fallback_prior);
}

Status ModelServer::CheckRequest(const std::string& scenario,
                                 const data::Batch& batch) const {
  std::string target;
  std::shared_ptr<Policy> policy;
  const Deployment deployment = Resolve(scenario, &target, &policy);
  if (deployment.model == nullptr) {
    return Status::NotFound("scenario " + scenario + " not deployed");
  }
  return ValidateRequest(*deployment.model, batch);
}

Result<std::vector<float>> ModelServer::Predict(const std::string& scenario,
                                                const data::Batch& batch) {
  std::string target;
  std::shared_ptr<Policy> policy;
  const Deployment deployment = Resolve(scenario, &target, &policy);
  if (deployment.model == nullptr) {
    return Status::NotFound("scenario " + scenario + " not deployed");
  }
  if (target != scenario) policy->unknown_fallbacks->Add(1);
  ALT_RETURN_IF_ERROR(ValidateRequest(*deployment.model, batch));
  if (policy == nullptr) return PredictOn(deployment, batch);

  resilience::CircuitBreaker* breaker = BreakerFor(policy.get(), target);
  if (!breaker->AllowRequest()) return FallbackPredict(*policy, target, batch);
  const double start_ms = policy->clock->NowMs();
  Result<std::vector<float>> result = PredictOn(deployment, batch);
  const double elapsed_ms = policy->clock->NowMs() - start_ms;
  bool healthy = result.ok();
  if (healthy && policy->options.predict_deadline_ms > 0.0 &&
      elapsed_ms > policy->options.predict_deadline_ms) {
    policy->deadline_exceeded->Add(1);
    healthy = false;
  }
  if (healthy) {
    breaker->RecordSuccess();
    return result;
  }
  breaker->RecordFailure();
  return FallbackPredict(*policy, target, batch);
}

Result<LatencyStats> ModelServer::GetLatencyStats(
    const std::string& scenario) const {
  if (!IsDeployed(scenario)) return Status::NotFound("scenario " + scenario);
  return RegistryLatencyStats(*registry_, scenario);
}

LatencyStats ModelServer::RegistryLatencyStats(
    const obs::MetricsRegistry& registry, const std::string& scenario) {
  const obs::HistogramSummary summary =
      registry.histogram_summary(LatencyMetricName(scenario));
  LatencyStats stats;
  stats.num_requests = summary.count;
  stats.mean_ms = summary.mean;
  stats.p50_ms = summary.p50;
  stats.p95_ms = summary.p95;
  stats.p99_ms = summary.p99;
  stats.max_ms = summary.max;
  return stats;
}

}  // namespace serving
}  // namespace alt
