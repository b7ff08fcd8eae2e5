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
  /// inside the model. Counted in `serving/quantized_deploys`, once per
  /// deploy call (however many replicas share the snapshot).
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
  /// under `retry` before giving up: each replica's publish attempt is
  /// retried, while the snapshot is prepared once.
  bool retry_transient = false;
  resilience::RetryOptions retry;
  /// Per-scenario SLO: latency target + availability objective. A plain
  /// ModelServer ignores it; ServingClient registers it with its SloTracker
  /// so the scenario's burn rate shows up on /slo and the alt_slo_* gauges.
  obs::SloObjective slo;
};

/// The Model Serving module (Sec. IV-E), and the engine of one worker
/// shard: a map from scenario to {version, snapshot, latency histogram}.
/// A snapshot is an immutable eval-mode model that every replica of the
/// scenario shares. Predict copies the scenario's entry under a brief lock
/// and runs the forward pass with no lock held, so requests to one scenario
/// run in parallel, and a redeploy swaps the pointer without waiting for
/// them: an in-flight request finishes on the snapshot it started with.
///
/// Observability: every Predict records into `registry()` (default: the
/// process-global obs::MetricsRegistry) under
/// `serving/model_server/latency_ms/<scenario>`. With ALT_OBS=off nothing
/// is recorded and GetLatencyStats reports zeros.
class ModelServer {
 public:
  /// A serving model: eval mode, int8-quantized when deployed so, and never
  /// modified again.
  using Snapshot = std::shared_ptr<const models::BaseModel>;

  /// `registry == nullptr` selects obs::MetricsRegistry::Global(). Tests
  /// pass a private registry for isolation; the registry must outlive the
  /// server.
  explicit ModelServer(obs::MetricsRegistry* registry = nullptr);

  /// Turns `model` into a snapshot, once per deploy call however many
  /// replicas publish it: eval mode, then with DeployOptions::quantize_int8
  /// the int8 quantization (counted in `registry`'s
  /// serving/quantized_deploys) and its calibration gauge.
  static Result<Snapshot> Prepare(const std::string& scenario,
                                  std::unique_ptr<models::BaseModel> model,
                                  const DeployOptions& options,
                                  obs::MetricsRegistry* registry);

  /// Prepares `model` and publishes it at the scenario's next version.
  Status Deploy(const std::string& scenario,
                std::unique_ptr<models::BaseModel> model,
                const DeployOptions& options = {});

  /// Installs `model` (a Prepare result) as the scenario's snapshot at
  /// `version`. The version gate refuses a version below the current one
  /// with FailedPrecondition, so a stale broadcast never overwrites a newer
  /// model; an equal version re-publishes. Each attempt hosts the
  /// serving/deploy fault point and is retried under
  /// DeployOptions::retry_transient / retry.
  Status Publish(const std::string& scenario, Snapshot model,
                 uint64_t version, const DeployOptions& options = {});

  /// The scenario's published version; 0 when not deployed.
  uint64_t Version(const std::string& scenario) const;
  /// The scenario's snapshot; nullptr when not deployed.
  Snapshot Model(const std::string& scenario) const;

  /// Enables graceful degradation for Predict, or replaces the policy in
  /// force (with fresh breakers); safe while traffic flows. `clock ==
  /// nullptr` selects resilience::RealClock(); tests inject a FakeClock to
  /// drive deadlines and breaker cooldowns. Internal wiring:
  /// ServingClient::Options / ServingClient::EnableResilience is the public
  /// way to configure resilience; the sharded plane calls this on every
  /// shard engine.
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

  /// Scores a request batch with `scenario`'s snapshot. Thread-safe and
  /// lock-free during the forward pass.
  Result<std::vector<float>> Predict(const std::string& scenario,
                                     const data::Batch& batch);

  /// Predict's request check on its own: NotFound without a deployment,
  /// InvalidArgument when `batch` does not fit the model Predict would run.
  Status CheckRequest(const std::string& scenario,
                      const data::Batch& batch) const;

  /// Latency distribution of past Predict calls (per request, not per
  /// sample), computed from the metrics registry histogram.
  Result<LatencyStats> GetLatencyStats(const std::string& scenario) const;

  obs::MetricsRegistry* registry() const { return registry_; }

  /// Registry name of the per-scenario request latency histogram.
  static std::string LatencyMetricName(const std::string& scenario);
  /// That histogram in `registry` as LatencyStats (zeros when empty).
  static LatencyStats RegistryLatencyStats(const obs::MetricsRegistry& registry,
                                           const std::string& scenario);

 private:
  struct Deployment {
    uint64_t version = 0;
    Snapshot model;
    obs::Histogram* latency_ms = nullptr;  // Owned by the registry.
  };

  /// The resilience policy in force. ConfigureResilience replaces it whole,
  /// and a Predict keeps the one it read, so reconfiguring races no
  /// request. Each policy owns its per-scenario breakers.
  struct Policy {
    ServingResilienceOptions options;
    resilience::Clock* clock = nullptr;
    obs::Counter* fallbacks = nullptr;          // Owned by the registry.
    obs::Counter* unknown_fallbacks = nullptr;  // Owned by the registry.
    obs::Counter* deadline_exceeded = nullptr;  // Owned by the registry.
    Mutex mu;
    std::map<std::string, std::unique_ptr<resilience::CircuitBreaker>>
        breakers ALT_GUARDED_BY(mu);
  };

  /// The scenario's deployment; a null model when not deployed.
  Deployment Find(const std::string& scenario) const ALT_EXCLUDES(registry_mu_);
  /// Reads the policy in force and the deployment Predict serves `scenario`
  /// from, under one lock: its own, else the policy's default scenario's,
  /// named in `*target`. A null model when neither is deployed.
  Deployment Resolve(const std::string& scenario, std::string* target,
                     std::shared_ptr<Policy>* policy) const
      ALT_EXCLUDES(registry_mu_);
  /// One publish attempt: the fault point, then the gated swap.
  Status PublishAttempt(const std::string& scenario, const Snapshot& model,
                        uint64_t version) ALT_EXCLUDES(registry_mu_);
  /// InvalidArgument unless `batch` fits `model`'s input contract (profile
  /// width, sequence length, behavior ids within the vocabulary), so a
  /// malformed request is refused before it reaches the forward pass's
  /// internal checks, the breaker, or the fallback.
  static Status ValidateRequest(const models::BaseModel& model,
                                const data::Batch& batch);
  /// The primary (non-degraded) Predict path; hosts the serving/predict
  /// fault point.
  static Result<std::vector<float>> PredictOn(const Deployment& deployment,
                                              const data::Batch& batch);
  /// Degraded answer for `scenario`: the fallback deployment's prediction
  /// when available, else a constant-prior vector. Always counts
  /// serving/fallbacks.
  Result<std::vector<float>> FallbackPredict(const Policy& policy,
                                             const std::string& scenario,
                                             const data::Batch& batch);
  /// The policy's breaker for `scenario`, created on first use (breaker
  /// construction registers metrics, so never under registry_mu_).
  resilience::CircuitBreaker* BreakerFor(Policy* policy,
                                         const std::string& scenario)
      ALT_EXCLUDES(registry_mu_);

  obs::MetricsRegistry* registry_;
  mutable Mutex registry_mu_;
  std::map<std::string, Deployment> deployments_ ALT_GUARDED_BY(registry_mu_);
  /// Null while resilience is off.
  std::shared_ptr<Policy> policy_ ALT_GUARDED_BY(registry_mu_);
};

}  // namespace serving
}  // namespace alt

#endif  // ALT_SRC_SERVING_MODEL_SERVER_H_
