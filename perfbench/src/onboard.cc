// The onboarding path: synthetic scenarios at `alt_pipeline --demo`
// shapes, sequential AltSystem::OnScenarioArrival, and the same pipeline
// called stage by stage with a span around each stage.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "perfbench/src/phases.h"
#include "src/data/synthetic.h"
#include "src/feature/data_preparation.h"
#include "src/nas/nas_search.h"
#include "src/train/trainer.h"

namespace perfbench {

namespace core = alt::core;
namespace data = alt::data;
namespace models = alt::models;

OnboardingData MakeOnboardingData(uint64_t seed, int arriving) {
  data::SyntheticConfig config;
  config.num_scenarios = 8 + arriving;
  config.profile_dim = 24;
  config.seq_len = 16;
  config.vocab_size = 30;
  config.scenario_sizes = {1200, 1000, 800, 700, 600, 500, 450, 400};
  alt::Rng rng(seed * 31 + 17);
  for (int i = 0; i < arriving; ++i) {
    config.scenario_sizes.push_back(rng.UniformInt(300, 350));
  }
  config.seed = seed;
  data::SyntheticGenerator generator(config);
  OnboardingData out;
  for (int64_t s = 0; s < config.num_scenarios; ++s) {
    (s < 8 ? out.initial : out.arriving)
        .push_back(generator.GenerateScenario(s));
  }
  return out;
}

core::AltSystemOptions SystemOptions(uint64_t seed,
                                     const OnboardingData& data) {
  // Mirrors tools/alt_pipeline_main.cc for the --demo job.
  int64_t vocab = 1;
  for (const auto* part : {&data.initial, &data.arriving}) {
    for (const data::ScenarioData& s : *part) {
      for (int64_t id : s.behaviors) vocab = std::max(vocab, id + 1);
    }
  }
  const int64_t profile_dim = data.initial[0].profile_dim;
  const int64_t seq_len = data.initial[0].seq_len;
  constexpr float kLr = 0.01f;
  constexpr int64_t kEpochs = 4;
  core::AltSystemOptions options;
  options.heavy_config = models::ModelConfig::Heavy(
      models::EncoderKind::kLstm, profile_dim, seq_len, vocab);
  options.light_config = models::ModelConfig::Light(
      models::EncoderKind::kLstm, profile_dim, seq_len, vocab);
  options.heavy_config.learning_rate = kLr;
  options.light_config.learning_rate = kLr;
  options.meta.init_train.epochs = kEpochs;
  options.meta.init_train.learning_rate = kLr;
  options.meta.finetune.epochs = kEpochs / 2;
  options.meta.finetune.learning_rate = kLr;
  options.nas.final_train.epochs = kEpochs;
  options.nas.final_train.learning_rate = kLr;
  options.nas.weight_lr = kLr;
  options.seed = seed;

  options.serving.num_shards = 2;
  options.serving.replication = 2;
  options.serving.hot_replication = 3;
  options.serving.batching.max_batch_size = 32;
  options.serving.batching.max_delay_ms = 0.2;
  options.serving.trace.sample_rate = 0.0;
  // Large enough to keep every request of one traced low-rate direct step,
  // so the unattributed share is measured over the whole population.
  options.serving.trace.slow_ring_size = 4096;
  return options;
}

OnboardingRun OnboardSequential(core::AltSystem* system,
                                const OnboardingData& data) {
  OnboardingRun run;
  for (const data::ScenarioData& raw : data.arriving) {
    const double start = NowSeconds();
    alt::Result<core::ScenarioArtifacts> artifacts =
        system->OnScenarioArrival(raw);
    run.seconds.push_back(NowSeconds() - start);
    if (!artifacts.ok()) {
      run.failed++;
      run.light_auc.push_back(0.0);
      continue;
    }
    run.light_auc.push_back(artifacts.value().light_test_auc);
  }
  return run;
}

namespace {

/// Wall time of each stage OnScenarioArrival runs, for one scenario.
struct StageSpans {
  double prepare_s = 0.0;
  double adapt_s = 0.0;
  double search_s = 0.0;
  double evaluate_s = 0.0;
  double deploy_s = 0.0;
  double light_auc = 0.0;
  double Sum() const {
    return prepare_s + adapt_s + search_s + evaluate_s + deploy_s;
  }
};

/// The body of AltSystem::OnScenarioArrival, stage by stage, each stage in
/// its own span.
alt::Result<StageSpans> ArriveStaged(core::AltSystem* system,
                                     const data::ScenarioData& raw) {
  const core::AltSystemOptions& options = system->options();
  StageSpans spans;
  double t = NowSeconds();
  auto span = [&t]() {
    const double now = NowSeconds();
    const double seconds = now - t;
    t = now;
    return seconds;
  };
  ALT_ASSIGN_OR_RETURN(alt::feature::PreparedData prepared,
                       alt::feature::PrepareScenarioData(raw, options.prep));
  spans.prepare_s = span();
  ALT_ASSIGN_OR_RETURN(
      std::unique_ptr<models::BaseModel> heavy,
      system->meta_learner()->AdaptToScenario(prepared.train));
  spans.adapt_s = span();
  alt::nas::NasSearchOptions nas_options = options.nas;
  nas_options.flops_budget = system->LightEncoderFlopsBudget();
  nas_options.seed =
      options.seed * 389 + static_cast<uint64_t>(raw.scenario_id) * 7 + 1;
  if (!options.distill) nas_options.distill_delta = 0.0f;
  alt::nas::NasSearchReport nas_report;
  ALT_ASSIGN_OR_RETURN(
      std::unique_ptr<models::BaseModel> light,
      alt::nas::SearchLightModel(options.light_config, heavy.get(),
                                 prepared.train, nas_options, &nas_report));
  spans.search_s = span();
  if (prepared.test.num_samples() > 0) {
    alt::train::EvaluateAuc(heavy.get(), prepared.test);
    spans.light_auc = alt::train::EvaluateAuc(light.get(), prepared.test);
  }
  spans.evaluate_s = span();
  alt::serving::DeployOptions deploy;
  deploy.retry_transient = true;
  deploy.retry = options.deploy_retry;
  ALT_RETURN_IF_ERROR(system->serving()->Deploy(
      "scenario_" + std::to_string(raw.scenario_id), std::move(light),
      deploy));
  spans.deploy_s = span();
  return spans;
}

}  // namespace

OnboardingRun OnboardTraced(core::AltSystem* reference,
                            core::AltSystem* staged,
                            const OnboardingData& data, Report* report) {
  OnboardingRun run;
  std::vector<StageSpans> spans;
  std::vector<double> coverage;
  bool same_auc = true;
  RegistryDelta counts;
  for (const data::ScenarioData& raw : data.arriving) {
    const double start = NowSeconds();
    auto artifacts = reference->OnScenarioArrival(raw);
    run.seconds.push_back(NowSeconds() - start);
    alt::Result<StageSpans> stages = ArriveStaged(staged, raw);
    if (!artifacts.ok() || !stages.ok()) {
      run.failed++;
      report->Fail("onboarding scenario " + std::to_string(raw.scenario_id) +
                   ": " +
                   (artifacts.ok() ? stages.status() : artifacts.status())
                       .ToString());
      continue;
    }
    run.light_auc.push_back(artifacts.value().light_test_auc);
    spans.push_back(stages.value());
    coverage.push_back(stages.value().Sum() / run.seconds.back());
    same_auc = same_auc && stages.value().light_auc == run.light_auc.back();
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  scenario %lld: OnScenarioArrival %.3f s, stages %.3f s, "
                  "light AUC %.6f (staged %.6f)",
                  static_cast<long long>(raw.scenario_id), run.seconds.back(),
                  stages.value().Sum(), run.light_auc.back(),
                  stages.value().light_auc);
    report->Note(line);
  }
  counts.Finish();
  report->Count(2 * static_cast<int64_t>(data.arriving.size()), run.failed);
  if (!same_auc) {
    report->Fail("staged onboarding light AUCs differ from OnScenarioArrival");
  }
  auto median_of = [&spans](double StageSpans::*field) {
    std::vector<double> values;
    for (const StageSpans& s : spans) values.push_back(s.*field);
    return Median(values);
  };
  // Both systems ran the same training work, so rates and step percentiles
  // over their sum are those of either.
  const double trainer_busy_s =
      counts.HistSum("train/trainer/step_time_ms") / 1e3;
  report->Add("feature.prepare_s", median_of(&StageSpans::prepare_s), "s");
  report->Add("meta.adapt_s", median_of(&StageSpans::adapt_s), "s");
  report->Add("nas.search_light_model_s", median_of(&StageSpans::search_s),
              "s");
  report->Add("train.evaluate_s", median_of(&StageSpans::evaluate_s), "s");
  report->Add("serving.deploy_ms", median_of(&StageSpans::deploy_s) * 1e3,
              "ms");
  report->Add("train.steps_per_s",
              trainer_busy_s > 0.0
                  ? static_cast<double>(
                        counts.Counter("train/trainer/steps_total")) /
                        trainer_busy_s
                  : 0.0,
              "1/s");
  report->Add("nas.step_ms_p50",
              counts.HistQuantile("nas/nas_search/step_time_ms", 0.5), "ms");
  report->Add("onboard.stage_coverage", Median(coverage), "frac");
  return run;
}

}  // namespace perfbench
