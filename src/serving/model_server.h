#ifndef ALT_SRC_SERVING_MODEL_SERVER_H_
#define ALT_SRC_SERVING_MODEL_SERVER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/models/base_model.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/resilience/circuit_breaker.h"
#include "src/resilience/retry.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace alt {
namespace serving {

/// Online latency distribution of one deployed model. Since ISSUE 3 this is
/// a thin read-view computed from the obs::MetricsRegistry histogram
/// `serving/model_server/latency_ms/<scenario>` — the registry is the
/// single source of truth; no serving-side latency buffers exist.
struct LatencyStats {  // alt_lint: allow(L007): read-view over obs::MetricsRegistry, not an ad-hoc store
  int64_t num_requests = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Graceful-degradation policy for Predict. Off by default; enable with
/// ModelServer::ConfigureResilience (or, at the public API layer,
/// ServingClient::EnableResilience). With it on, each scenario gets a circuit
/// breaker over its Predict outcomes: while the breaker is open — or when a
/// call fails or overruns `predict_deadline_ms` — the answer comes from the
/// fallback path (the scenario-agnostic f0 deployment named by
/// `fallback_scenario`, else the constant `fallback_prior` score) instead
/// of propagating the error to the caller.
struct ServingResilienceOptions {
  resilience::CircuitBreakerOptions breaker;
  /// When > 0, a Predict slower than this counts as a breaker failure and
  /// the fallback answer is served in its place.
  double predict_deadline_ms = 0.0;
  /// Deployed scenario that serves degraded traffic (conventionally "f0",
  /// the meta-learner's scenario-agnostic snapshot). Empty: skip straight
  /// to the constant prior.
  std::string fallback_scenario;
  /// Score served when no fallback deployment is available.
  float fallback_prior = 0.5f;
  /// When non-empty, Predict on an unknown scenario degrades to this
  /// deployed scenario (counted in serving/unknown_scenario_fallbacks)
  /// instead of returning NotFound.
  std::string default_scenario;
};

/// Per-deploy configuration (plain Deploy == all defaults).
struct DeployOptions {
  /// Post-training int8 quantization of the model's Linear layers at
  /// deploy time (symmetric scheme, src/tensor/quant.h). The serving
  /// Predict path then runs the int8 GEMM; the fp32 weights stay intact
  /// inside the model. Counted in `serving/quantized_deploys`.
  bool quantize_int8 = false;
  /// Optional calibration batch, scored with the fp32 model right before
  /// quantization — its fp32 probabilities are the distillation soft
  /// labels the int8 model is compared against. The maximum
  /// |p_int8 - p_fp32| over the batch lands in the gauge
  /// `serving/quantization/max_prob_delta/<scenario>`, so the accuracy
  /// cost of every quantized deploy is measured, not assumed. Ignored
  /// unless quantize_int8 is set. Must outlive the Deploy call only.
  const data::Batch* calibration = nullptr;
  /// Hot scenario: the sharded serving plane (ServingClient/ShardCoordinator)
  /// deploys it to the larger `hot_replication` replica group so head
  /// traffic fans out over more workers. A plain ModelServer ignores it.
  bool hot = false;
  /// Retry transient deploy failures (e.g. injected serving/deploy faults)
  /// under `retry` before giving up. The model survives failed attempts and
  /// is consumed only on success or once the schedule is exhausted — this
  /// subsumes external retry wrappers around single deploy attempts.
  bool retry_transient = false;
  resilience::RetryOptions retry;
  /// Per-scenario SLO: latency target + availability objective. A plain
  /// ModelServer ignores it; ServingClient registers it with its SloTracker
  /// so the scenario's burn rate shows up on /slo and the alt_slo_* gauges.
  obs::SloObjective slo;
};

/// The Model Serving module (Sec. IV-E): per-scenario model registry with
/// thread-safe prediction and per-scenario latency accounting. Deploys are
/// atomic swaps, so scenarios can be re-deployed while serving.
///
/// Observability: every Predict records into `registry()` (default: the
/// process-global obs::MetricsRegistry) under
/// `serving/model_server/latency_ms/<scenario>`. With ALT_OBS=off nothing
/// is recorded and GetLatencyStats reports zeros.
class ModelServer {
 public:
  /// `registry == nullptr` selects obs::MetricsRegistry::Global(). Tests
  /// pass a private registry for isolation; the registry must outlive the
  /// server.
  explicit ModelServer(obs::MetricsRegistry* registry = nullptr);

  /// Installs (or replaces) the serving model of `scenario`. The one deploy
  /// entry point: retry behavior is selected via
  /// DeployOptions::retry_transient / DeployOptions::retry.
  Status Deploy(const std::string& scenario,
                std::unique_ptr<models::BaseModel> model,
                const DeployOptions& options = {});

  /// Enables graceful degradation for Predict. `clock == nullptr` selects
  /// resilience::RealClock(); tests inject a FakeClock to drive deadlines
  /// and breaker cooldowns. Internal wiring: ServingClient::Options /
  /// ServingClient::EnableResilience is the public way to configure
  /// resilience; the sharded plane calls this on every shard engine.
  void ConfigureResilience(ServingResilienceOptions options,
                           resilience::Clock* clock = nullptr);

  /// Breaker state of a scenario that has served resilient traffic;
  /// NotFound before its first Predict or with resilience off.
  Result<resilience::BreakerState> GetBreakerState(
      const std::string& scenario) const;

  /// Breaker states of every scenario that has served resilient traffic
  /// (empty with resilience off). Drives the telemetry /healthz probe.
  std::map<std::string, resilience::BreakerState> BreakerStates() const;

  Status Undeploy(const std::string& scenario);
  bool IsDeployed(const std::string& scenario) const;
  std::vector<std::string> Scenarios() const;

  /// Scores a request batch with `scenario`'s model. Thread-safe; requests
  /// to the same scenario are serialized on that scenario's lock.
  Result<std::vector<float>> Predict(const std::string& scenario,
                                     const data::Batch& batch);

  /// Predict's request check on its own: NotFound without a deployment,
  /// InvalidArgument when `batch` does not fit the model Predict would run.
  Status CheckRequest(const std::string& scenario,
                      const data::Batch& batch) const;

  /// Latency distribution of past Predict calls (per request, not per
  /// sample), computed from the metrics registry histogram.
  Result<LatencyStats> GetLatencyStats(const std::string& scenario) const;

  /// Inference FLOPs per sample of the deployed model.
  Result<int64_t> FlopsPerSample(const std::string& scenario) const;

  /// Writes the deployed model as a self-contained serving bundle.
  Status ExportBundle(const std::string& scenario,
                      const std::string& path) const;

  obs::MetricsRegistry* registry() const { return registry_; }

  /// Registry name of the per-scenario request latency histogram.
  static std::string LatencyMetricName(const std::string& scenario);
  /// That histogram in `registry` as LatencyStats (zeros when empty).
  static LatencyStats RegistryLatencyStats(const obs::MetricsRegistry& registry,
                                           const std::string& scenario);

 private:
  struct Deployment {
    Mutex mu;
    /// The serving model; swapped atomically by Deploy, serialized per
    /// scenario by PredictOn.
    std::unique_ptr<models::BaseModel> model ALT_GUARDED_BY(mu);
    obs::Histogram* latency_ms = nullptr;  // Owned by the registry.
  };

  std::shared_ptr<Deployment> FindDeployment(const std::string& scenario) const;
  /// The deployment Predict serves `scenario` from (its own, else the
  /// resilience default's), named in `*target`; nullptr when none.
  std::shared_ptr<Deployment> ResolveDeployment(const std::string& scenario,
                                                std::string* target) const;
  /// One deploy attempt; consumes `*model` only on success (the retry-loop
  /// contract, now an implementation detail of Deploy's retry loop).
  Status DeployAttempt(const std::string& scenario,
                       std::unique_ptr<models::BaseModel>* model,
                       const DeployOptions& options);
  /// InvalidArgument unless `batch` fits the deployed model's input contract
  /// (profile width, sequence length, behavior ids within the vocabulary),
  /// so a malformed request is refused before it reaches the forward pass's
  /// internal checks, the breaker, or the fallback.
  static Status ValidateRequest(Deployment* deployment,
                                const data::Batch& batch);
  /// The primary (non-degraded) Predict path; hosts the serving/predict
  /// fault point.
  Result<std::vector<float>> PredictOn(
      const std::shared_ptr<Deployment>& deployment, const data::Batch& batch);
  /// Degraded answer for `scenario`: the fallback deployment's prediction
  /// when available, else a constant-prior vector. Always counts
  /// serving/fallbacks.
  Result<std::vector<float>> FallbackPredict(const std::string& scenario,
                                             const data::Batch& batch);
  /// Lazily creates the scenario's breaker (callers must not hold
  /// registry_mu_: breaker construction registers metrics, and the two
  /// locks must never nest).
  resilience::CircuitBreaker* BreakerFor(const std::string& scenario)
      ALT_EXCLUDES(registry_mu_, breakers_mu_);

  /// Deployments are shared_ptrs so an in-flight Predict keeps its
  /// deployment alive across a concurrent Undeploy.
  obs::MetricsRegistry* registry_;
  mutable Mutex registry_mu_;
  std::map<std::string, std::shared_ptr<Deployment>> deployments_
      ALT_GUARDED_BY(registry_mu_);

  // Resilience configuration (resilience_enabled_, resilience_, clock_ and
  // the counter handles below) is written once by ConfigureResilience before the
  // server takes resilient traffic, then read without locking on the
  // Predict path; it is deliberately not lock-guarded.
  bool resilience_enabled_ = false;
  ServingResilienceOptions resilience_;
  resilience::Clock* clock_ = nullptr;
  mutable Mutex breakers_mu_;
  std::map<std::string, std::unique_ptr<resilience::CircuitBreaker>> breakers_
      ALT_GUARDED_BY(breakers_mu_);
  obs::Counter* fallbacks_total_ = nullptr;         // Owned by the registry.
  obs::Counter* unknown_fallbacks_total_ = nullptr; // Owned by the registry.
  obs::Counter* deadline_exceeded_total_ = nullptr; // Owned by the registry.
};

}  // namespace serving
}  // namespace alt

#endif  // ALT_SRC_SERVING_MODEL_SERVER_H_
