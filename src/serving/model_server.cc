#include "src/serving/model_server.h"

#include <algorithm>
#include <cmath>

#include "src/obs/memory_tracker.h"
#include "src/obs/trace.h"
#include "src/resilience/fault_injection.h"
#include "src/serving/model_store.h"

namespace alt {
namespace serving {

ModelServer::ModelServer(obs::MetricsRegistry* registry)
    : registry_(registry != nullptr ? registry
                                    : &obs::MetricsRegistry::Global()) {}

std::string ModelServer::LatencyMetricName(const std::string& scenario) {
  return "serving/model_server/latency_ms/" + scenario;
}

Status ModelServer::Deploy(const std::string& scenario,
                           std::unique_ptr<models::BaseModel> model,
                           const DeployOptions& options) {
  if (!options.retry_transient) return DeployAttempt(scenario, &model, options);
  resilience::RetryPolicy policy(options.retry);
  return policy.Run("serving deploy " + scenario, [this, &scenario, &model,
                                                   &options]() {
    // DeployAttempt consumes the model only on success, so every retry
    // attempt still has it.
    return DeployAttempt(scenario, &model, options);
  });
}

Status ModelServer::DeployAttempt(const std::string& scenario,
                                  std::unique_ptr<models::BaseModel>* model,
                                  const DeployOptions& options) {
  if (model == nullptr || *model == nullptr) {
    return Status::InvalidArgument("null model");
  }
  ALT_FAULT_RETURN_IF("serving/deploy");
  (*model)->SetTraining(false);
  if (options.quantize_int8) {
    // Score the calibration batch with the fp32 weights first: those probs
    // are the distillation soft labels the quantized model is checked
    // against.
    std::vector<float> soft_labels;
    if (options.calibration != nullptr) {
      soft_labels = (*model)->PredictProbs(*options.calibration);
    }
    (*model)->QuantizeForServing();
    registry_->counter("serving/quantized_deploys")->Add();
    if (options.calibration != nullptr) {
      const std::vector<float> int8_probs =
          (*model)->PredictProbs(*options.calibration);
      double max_delta = 0.0;
      for (size_t i = 0; i < soft_labels.size(); ++i) {
        max_delta = std::max(
            max_delta, std::fabs(static_cast<double>(int8_probs[i]) -
                                 static_cast<double>(soft_labels[i])));
      }
      registry_
          ->gauge("serving/quantization/max_prob_delta/" + scenario)
          ->Set(max_delta);
    }
  }
  std::shared_ptr<Deployment> deployment;
  {
    MutexLock lock(registry_mu_);
    auto it = deployments_.find(scenario);
    if (it == deployments_.end()) {
      deployment = std::make_shared<Deployment>();
      deployment->latency_ms =
          registry_->histogram(LatencyMetricName(scenario));
      deployments_[scenario] = deployment;
    } else {
      deployment = it->second;
    }
  }
  MutexLock model_lock(deployment->mu);
  deployment->model = std::move(*model);
  return Status::OK();
}

void ModelServer::ConfigureResilience(ServingResilienceOptions options,
                                      resilience::Clock* clock) {
  MutexLock lock(breakers_mu_);
  resilience_ = std::move(options);
  clock_ = clock != nullptr ? clock : resilience::RealClock();
  fallbacks_total_ = registry_->counter("serving/fallbacks");
  unknown_fallbacks_total_ =
      registry_->counter("serving/unknown_scenario_fallbacks");
  deadline_exceeded_total_ =
      registry_->counter("serving/predict_deadline_exceeded");
  breakers_.clear();
  resilience_enabled_ = true;
}

Result<resilience::BreakerState> ModelServer::GetBreakerState(
    const std::string& scenario) const {
  MutexLock lock(breakers_mu_);
  auto it = breakers_.find(scenario);
  if (it == breakers_.end()) {
    return Status::NotFound("no breaker for scenario " + scenario);
  }
  return it->second->state();
}

std::map<std::string, resilience::BreakerState> ModelServer::BreakerStates()
    const {
  MutexLock lock(breakers_mu_);
  std::map<std::string, resilience::BreakerState> states;
  for (const auto& [scenario, breaker] : breakers_) {
    states.emplace(scenario, breaker->state());
  }
  return states;
}

resilience::CircuitBreaker* ModelServer::BreakerFor(
    const std::string& scenario) {
  MutexLock lock(breakers_mu_);
  auto it = breakers_.find(scenario);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(scenario, std::make_unique<resilience::CircuitBreaker>(
                                    "serving/" + scenario, resilience_.breaker,
                                    clock_, registry_))
             .first;
  }
  return it->second.get();
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

std::shared_ptr<ModelServer::Deployment> ModelServer::FindDeployment(
    const std::string& scenario) const {
  MutexLock lock(registry_mu_);
  auto it = deployments_.find(scenario);
  return it == deployments_.end() ? nullptr : it->second;
}

Status ModelServer::ValidateRequest(Deployment* deployment,
                                   const data::Batch& batch) {
  MutexLock model_lock(deployment->mu);
  // A deployment without a model is PredictOn's NotFound to report.
  if (deployment->model == nullptr) return Status::OK();
  const models::ModelConfig& config = deployment->model->config();
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
    const std::shared_ptr<Deployment>& deployment, const data::Batch& batch) {
  // Per-deployment lock: the model's forward pass mutates training-mode
  // state, so concurrent requests to one scenario serialize here.
  MutexLock model_lock(deployment->mu);
  if (deployment->model == nullptr) {
    return Status::NotFound("deployment has no model");
  }
  ALT_FAULT_RETURN_IF("serving/predict");
  ALT_TRACE_SPAN(span, "serving/model_server/predict");
  obs::ScopedMemoryTag memory_tag("serving");
  obs::ScopedTimerMs timer(deployment->latency_ms);
  return deployment->model->PredictProbs(batch);
}

Result<std::vector<float>> ModelServer::FallbackPredict(
    const std::string& scenario, const data::Batch& batch) {
  fallbacks_total_->Add(1);
  if (!resilience_.fallback_scenario.empty() &&
      resilience_.fallback_scenario != scenario) {
    std::shared_ptr<Deployment> fallback =
        FindDeployment(resilience_.fallback_scenario);
    if (fallback != nullptr) {
      Result<std::vector<float>> result = PredictOn(fallback, batch);
      if (result.ok()) return result;
      // The heavy model failed too (possibly an injected fault); degrade
      // one more step to the constant prior rather than surface an error.
    }
  }
  return std::vector<float>(static_cast<size_t>(batch.batch_size),
                            resilience_.fallback_prior);
}

std::shared_ptr<ModelServer::Deployment> ModelServer::ResolveDeployment(
    const std::string& scenario, std::string* target) const {
  *target = scenario;
  std::shared_ptr<Deployment> deployment = FindDeployment(scenario);
  if (deployment == nullptr && resilience_enabled_ &&
      !resilience_.default_scenario.empty() &&
      scenario != resilience_.default_scenario) {
    deployment = FindDeployment(resilience_.default_scenario);
    if (deployment != nullptr) *target = resilience_.default_scenario;
  }
  return deployment;
}

Status ModelServer::CheckRequest(const std::string& scenario,
                                 const data::Batch& batch) const {
  std::string target;
  std::shared_ptr<Deployment> deployment = ResolveDeployment(scenario, &target);
  if (deployment == nullptr) {
    return Status::NotFound("scenario " + scenario + " not deployed");
  }
  return ValidateRequest(deployment.get(), batch);
}

Result<std::vector<float>> ModelServer::Predict(const std::string& scenario,
                                                const data::Batch& batch) {
  std::string target;
  std::shared_ptr<Deployment> deployment = ResolveDeployment(scenario, &target);
  if (deployment == nullptr) {
    return Status::NotFound("scenario " + scenario + " not deployed");
  }
  if (target != scenario) unknown_fallbacks_total_->Add(1);
  ALT_RETURN_IF_ERROR(ValidateRequest(deployment.get(), batch));
  if (!resilience_enabled_) return PredictOn(deployment, batch);

  resilience::CircuitBreaker* breaker = BreakerFor(target);
  if (!breaker->AllowRequest()) return FallbackPredict(target, batch);
  const double start_ms = clock_->NowMs();
  Result<std::vector<float>> result = PredictOn(deployment, batch);
  const double elapsed_ms = clock_->NowMs() - start_ms;
  bool healthy = result.ok();
  if (healthy && resilience_.predict_deadline_ms > 0.0 &&
      elapsed_ms > resilience_.predict_deadline_ms) {
    deadline_exceeded_total_->Add(1);
    healthy = false;
  }
  if (healthy) {
    breaker->RecordSuccess();
    return result;
  }
  breaker->RecordFailure();
  return FallbackPredict(target, batch);
}

Result<LatencyStats> ModelServer::GetLatencyStats(
    const std::string& scenario) const {
  if (FindDeployment(scenario) == nullptr) {
    return Status::NotFound("scenario " + scenario);
  }
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

Result<int64_t> ModelServer::FlopsPerSample(
    const std::string& scenario) const {
  std::shared_ptr<Deployment> deployment = FindDeployment(scenario);
  if (deployment == nullptr) return Status::NotFound("scenario " + scenario);
  MutexLock model_lock(deployment->mu);
  if (deployment->model == nullptr) {
    return Status::NotFound("scenario " + scenario + " has no model");
  }
  return deployment->model->FlopsPerSample();
}

Status ModelServer::ExportBundle(const std::string& scenario,
                                 const std::string& path) const {
  std::shared_ptr<Deployment> deployment = FindDeployment(scenario);
  if (deployment == nullptr) return Status::NotFound("scenario " + scenario);
  MutexLock model_lock(deployment->mu);
  if (deployment->model == nullptr) {
    return Status::NotFound("scenario " + scenario + " has no model");
  }
  return SaveModelBundleToFile(deployment->model.get(), path);
}

}  // namespace serving
}  // namespace alt
