// The benchmark's phases: the layer ladder, the onboarding path, and a
// view of what the program's metrics registry counted during a phase.

#ifndef PERFBENCH_SRC_PHASES_H_
#define PERFBENCH_SRC_PHASES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/zoo.h"
#include "src/core/alt_system.h"
#include "src/data/dataset.h"
#include "src/obs/metrics.h"

namespace perfbench {

/// What the process-global metrics registry counted between construction
/// and Finish(). Every layer of the program reports there.
class RegistryDelta {
 public:
  RegistryDelta();
  void Finish();

  int64_t Counter(const std::string& name) const;
  /// Sum over every counter whose name starts with `prefix`.
  int64_t CounterPrefix(const std::string& prefix) const;
  double HistSum(const std::string& name) const;
  double HistMean(const std::string& name) const;
  /// Quantile interpolated inside the bucket it falls in.
  double HistQuantile(const std::string& name, double q) const;

 private:
  alt::obs::HistogramBuckets Hist(const std::string& name) const;

  alt::obs::MetricsRegistry::Snapshot before_;
  alt::obs::MetricsRegistry::Snapshot after_;
};

/// Times one request shape through each public entry point of the serving
/// path in turn, from the GEMM kernel up to the client, and adds each
/// layer's cost and its overhead over the layer below to `report`.
void RunLadder(alt::serving::ServingClient* client, const Zoo& zoo,
               Report* report);

/// Onboarding inputs at `alt_pipeline --demo` shapes: 8 initial scenarios
/// and `arriving` scenarios of 300-350 samples, all drawn from `seed`.
struct OnboardingData {
  std::vector<alt::data::ScenarioData> initial;
  std::vector<alt::data::ScenarioData> arriving;
};
OnboardingData MakeOnboardingData(uint64_t seed, int arriving);

/// AltSystem options of the benchmark: `--demo` model shapes and training
/// budgets, a 2-shard serving plane with replication 2 (3 for hot
/// scenarios), tracing off.
alt::core::AltSystemOptions SystemOptions(uint64_t seed,
                                          const OnboardingData& data);

struct OnboardingRun {
  std::vector<double> seconds;    // Per arriving scenario.
  std::vector<double> light_auc;  // Per arriving scenario.
  int64_t failed = 0;
};

/// Sequential AltSystem::OnScenarioArrival over `data.arriving`.
OnboardingRun OnboardSequential(alt::core::AltSystem* system,
                                const OnboardingData& data);

/// For each arriving scenario, OnScenarioArrival on `reference`, then the
/// stage functions it calls, in its order and each in its own span, on
/// `staged` (initialised from the same seed). Checks that both produce the
/// same light AUC and adds the per-stage metrics and the stage coverage
/// (stage-span sum over the adjacent OnScenarioArrival, median over
/// scenarios) to `report`. Returns the OnScenarioArrival times and AUCs.
OnboardingRun OnboardTraced(alt::core::AltSystem* reference,
                            alt::core::AltSystem* staged,
                            const OnboardingData& data, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PHASES_H_
