// alt_perfbench: the repository benchmark. See perfbench/README.md.
//
//   alt_perfbench --workload serve_direct|serve_batched --seed N
//                 --seconds S --trace 0|1
//
// Every workload sets up one AltSystem (Initialize on the 8 initial
// scenarios, then a 200-scenario serving zoo on its 2-shard plane), offers
// open-loop serving traffic of the workload's kind, and then onboards the
// arriving scenarios one by one. `--trace 0` prints the end-to-end
// metrics; `--trace 1` prints the per-layer metrics from the layer ladder,
// a traced replay of the serving traffic and a stage-by-stage onboarding.
// The last line of stdout is one JSON object.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/loadgen.h"
#include "perfbench/src/phases.h"
#include "perfbench/src/zoo.h"
#include "src/util/parallel_for.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  Traffic traffic;
  double low_rps;
  double high_rps;
  /// The p99 limit of `sustained_rps`.
  double p99_limit_ms;
  /// Redeploys per second to Zipf-head scenarios beside the traffic.
  double redeploys_per_s;
};

constexpr Workload kWorkloads[] = {
    {"serve_direct", Traffic::kDirect, 1000.0, 2000.0, 25.0, 0.0},
    {"serve_batched", Traffic::kBatched, 8000.0, 20000.0, 25.0, 20.0},
};

/// Arriving scenarios onboarded per run.
constexpr int kArriving = 8;
constexpr int kSearchSteps = 7;
/// Workloads that redeploy nothing beside their traffic time a paced
/// stream of redeploys on the idle plane instead: 100/s for 2 s, so the
/// median samples two seconds of host state rather than a 20 ms burst.
constexpr double kIdleRedeploysPerS = 100.0;
constexpr double kIdleRedeploySeconds = 2.0;

/// End-to-end metrics of the JSON line, gated by BENCHMARK.json. The run
/// also prints the request latencies (p50_ms.*, p99_ms.*), sustained_rps,
/// deploy_p95_ms, onboard_total_s and failed_frac; README.md says why those
/// are reported but not gated.
const std::vector<std::string> kEndToEnd = {
    "deploy_p50_ms", "onboard_p50_s", "light_auc", "setup_s", "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "tensor.gemm_us",
    "tensor.gemm_gflops",
    "tensor.gemm_calls_per_req",
    "models.forward_us.b1",
    "models.gflops.b1",
    "models.forward_us_per_sample.b32",
    "serving.model_server.overhead_us",
    "serving.shard.hop_us",
    "serving.coordinator.overhead_us",
    "serving.client.sync_overhead_us",
    "serving.client.batched_us_per_req",
    "serving.batch_predictor.batch_size_mean",
    "serving.batch_predictor.queue_high_watermark",
    "serving.coordinator.broadcast_ms_p50",
    "seg.route_ms",
    "seg.queue_wait_ms",
    "seg.batch_wait_ms",
    "seg.unattributed_frac.p50",
    "seg.unattributed_frac.p99",
    "obs.trace_overhead_frac",
    "meta.initialize_s",
    "feature.prepare_s",
    "meta.adapt_s",
    "nas.search_light_model_s",
    "train.evaluate_s",
    "serving.deploy_ms",
    "train.steps_per_s",
    "nas.step_ms_p50",
    "util.parallel_for.regions_per_scenario",
    "util.parallel_for.pool_onboard_ratio",
    "onboard.stage_coverage",
    "cpu_util",
    "loadgen.lag_p99_ms"};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args->workload = &w;
      }
      if (args->workload == nullptr) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return args->workload != nullptr && args->seconds > 0.0 && argc % 2 == 1;
}

const Workload& Other(const Workload& w) {
  return w.traffic == Traffic::kDirect ? kWorkloads[1] : kWorkloads[0];
}

std::string StepLine(const char* label, const StepStats& s,
                     double limit_ms) {
  char line[320];
  std::snprintf(
      line, sizeof(line),
      "  %-10s %8.0f req/s %5.2fs sent %7lld p50 %7.3f ms p99 %8.3f ms "
      "lag p99 %6.3f ms backlog %5lld cpu %.2f%s%s",
      label, s.rate_rps, s.seconds, static_cast<long long>(s.sent), s.P50(),
      s.P99(), s.LagP99(), static_cast<long long>(s.backlog), s.cpu_util,
      s.Sustained(limit_ms) ? "" : "  [over limit]",
      s.GeneratorBehind(limit_ms) ? "  [GENERATOR BEHIND]" : "");
  return line;
}

/// The system under test, set up once per run.
struct Setup {
  OnboardingData data;
  std::unique_ptr<alt::core::AltSystem> system;
  std::unique_ptr<Zoo> zoo;
  double initialize_s = 0.0;
  double seconds = 0.0;
};

bool DoSetup(uint64_t seed, Setup* setup, Report* report) {
  const double start = NowSeconds();
  setup->data = MakeOnboardingData(seed, kArriving);
  setup->system = std::make_unique<alt::core::AltSystem>(
      SystemOptions(seed, setup->data));
  const double init_start = NowSeconds();
  const alt::Status init = setup->system->Initialize(setup->data.initial);
  setup->initialize_s = NowSeconds() - init_start;
  if (!init.ok()) {
    report->Fail("Initialize: " + init.ToString());
    return false;
  }
  setup->zoo = std::make_unique<Zoo>(seed);
  const alt::Status deployed = setup->zoo->Deploy(setup->system->serving());
  report->Count(Zoo::kScenarios, deployed.ok() ? 0 : 1);
  if (!deployed.ok()) {
    report->Fail("zoo deploy: " + deployed.ToString());
    return false;
  }
  setup->seconds = NowSeconds() - start;
  return true;
}

/// Registry cross-checks over the serving steps of one traffic kind.
void CrossCheck(const RegistryDelta& counts, Traffic traffic,
                const std::vector<const StepStats*>& steps, Report* report) {
  int64_t sent = 0, served = 0;
  for (const StepStats* s : steps) {
    sent += s->sent;
    served += s->ok + s->wrong;
  }
  const int64_t shard_requests =
      counts.CounterPrefix("serving/shard/requests/");
  if (traffic == Traffic::kDirect) {
    report->Note("  check: shard requests " + std::to_string(shard_requests) +
                 " == served direct requests " + std::to_string(served));
    if (shard_requests != served) {
      report->Fail("shard request counters disagree with served requests");
    }
  } else {
    const int64_t batches =
        counts.Counter("serving/batch_predictor/batches_dispatched");
    const double batched = counts.HistSum("serving/batch_predictor/batch_size");
    report->Note("  check: batches " + std::to_string(batches) +
                 " x mean size " +
                 std::to_string(batches > 0 ? batched / batches : 0.0) +
                 " == batched requests " + std::to_string(sent) +
                 "; shard requests " + std::to_string(shard_requests));
    if (static_cast<int64_t>(batched + 0.5) != sent) {
      report->Fail("batch-size histogram disagrees with sent requests");
    }
  }
  for (const char* counter :
       {"serving/coordinator/failovers", "serving/admission/shed",
        "serving/fallbacks"}) {
    const int64_t n = counts.Counter(counter);
    report->Note(std::string("  count: ") + counter + " = " +
                 std::to_string(n) + (n != 0 ? "  (expected 0)" : ""));
  }
}

/// Lets the shard dispatchers finish counting the requests already served,
/// so a registry snapshot taken next agrees with the load generator.
void Settle(alt::serving::ServingClient* client, Report* report) {
  if (!WaitForIdleShards(client, 5.0)) {
    report->Fail("shard queues did not drain within 5 s");
  }
}

void CountSteps(const std::vector<const StepStats*>& steps, Report* report) {
  for (const StepStats* s : steps) {
    report->Count(s->sent, s->failed + s->wrong);
    if (s->wrong > 0) {
      report->Fail(std::to_string(s->wrong) + " served scores outside " +
                   "tolerance");
    }
    if (s->failed > 0) {
      report->Fail(std::to_string(s->failed) + " requests failed");
    }
  }
}

void Onboard(Setup* setup, OnboardingRun* run, Report* report) {
  *run = OnboardSequential(setup->system.get(), setup->data);
  report->Count(static_cast<int64_t>(run->seconds.size()), run->failed);
  if (run->failed > 0) report->Fail("onboarding failed for some scenario");
  double total = 0.0, auc = 0.0;
  for (size_t i = 0; i < run->seconds.size(); ++i) {
    total += run->seconds[i];
    auc += run->light_auc[i];
    char line[128];
    std::snprintf(line, sizeof(line), "  onboard scenario %zu: %.3f s, light AUC %.6f",
                  i, run->seconds[i], run->light_auc[i]);
    report->Note(line);
  }
  report->Add("onboard_p50_s", Median(run->seconds), "s");
  report->Add("onboard_total_s", total, "s");
  report->Add("light_auc", auc / static_cast<double>(run->light_auc.size()),
              "auc");
}

/// One more OnScenarioArrival with the compute pool at its default size
/// (every other phase runs with one compute thread, see main): how many
/// ParallelFor regions fan out per scenario, and what the pool's hand-offs
/// cost or save against the one-thread median.
void PoolOnboarding(alt::core::AltSystem* system, const OnboardingData& data,
                    const OnboardingRun& one_thread, Report* report) {
  alt::SetComputeThreads(0);
  RegistryDelta counts;
  const double start = NowSeconds();
  const auto artifacts = system->OnScenarioArrival(data.arriving.front());
  const double seconds = NowSeconds() - start;
  counts.Finish();
  alt::SetComputeThreads(1);
  report->Count(1, artifacts.ok() ? 0 : 1);
  if (!artifacts.ok()) {
    report->Fail("onboarding with the compute pool: " +
                 artifacts.status().ToString());
  }
  report->Add("util.parallel_for.regions_per_scenario",
              static_cast<double>(
                  counts.Counter("util/parallel_for/regions_total")),
              "count");
  report->Add("util.parallel_for.pool_onboard_ratio",
              seconds / Median(one_thread.seconds), "ratio");
}

int RunEndToEnd(const Args& args, Report* report) {
  const Workload& w = *args.workload;
  Setup setup;
  if (!DoSetup(args.seed, &setup, report)) return 1;
  alt::serving::ServingClient* client = setup.system->serving();

  report->Note(std::string("serving: ") + w.name);
  RegistryDelta counts;
  LoadGenerator generator(client, setup.zoo.get(), w.traffic, args.seed);
  std::vector<double> deploy_ms;
  int64_t deploys_failed = 0;
  // Runs `steps` with the workload's redeploy stream beside them, if any.
  auto with_redeploys = [&](uint64_t stream, auto&& steps) {
    std::unique_ptr<Redeployer> redeployer;
    if (w.redeploys_per_s > 0.0) {
      redeployer = std::make_unique<Redeployer>(client, setup.zoo.get(),
                                                stream, w.redeploys_per_s);
    }
    steps();
    if (redeployer != nullptr) {
      const std::vector<double> ms = redeployer->Stop();
      deploy_ms.insert(deploy_ms.end(), ms.begin(), ms.end());
      deploys_failed += redeployer->failed();
    }
  };
  const double step_s = args.seconds * 0.25;
  StepStats low, high;
  with_redeploys(args.seed, [&]() {
    low = generator.Run(w.low_rps, step_s);
    high = generator.Run(w.high_rps, step_s);
  });

  // Onboarding before the search, so that peak_rss_mb is the footprint of
  // the fixed-rate traffic and onboarding, not of the search's overload
  // backlog.
  OnboardingRun onboarding;
  Onboard(&setup, &onboarding, report);
  report->Add("peak_rss_mb", PeakRssMb(), "MB");

  std::vector<StepStats> search;
  double sustained = 0.0;
  with_redeploys(args.seed + 1, [&]() {
    sustained = SearchSustainedRate(&generator, w.high_rps, w.p99_limit_ms,
                                    kSearchSteps,
                                    args.seconds * 0.5 / kSearchSteps, &search);
  });
  Settle(client, report);
  counts.Finish();
  if (w.redeploys_per_s <= 0.0) {
    Redeployer idle(client, setup.zoo.get(), args.seed + 2, kIdleRedeploysPerS);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kIdleRedeploySeconds));
    deploy_ms = idle.Stop();
    deploys_failed += idle.failed();
  }
  report->Count(static_cast<int64_t>(deploy_ms.size()), deploys_failed);
  if (deploys_failed > 0) report->Fail("a redeploy failed");

  std::vector<const StepStats*> steps = {&low, &high};
  for (const StepStats& s : search) steps.push_back(&s);
  report->Note(StepLine("low", low, w.p99_limit_ms));
  report->Note(StepLine("high", high, w.p99_limit_ms));
  for (const StepStats& s : search) {
    report->Note(StepLine("search", s, w.p99_limit_ms));
  }
  CrossCheck(counts, w.traffic, steps, report);
  CountSteps(steps, report);
  if (sustained <= 0.0) {
    report->Note("  no search step met the p99 limit");
    sustained = search.empty() ? 0.0 : search.back().rate_rps / 1.5;
  }

  int64_t sent = 0, bad = 0;
  for (const StepStats* s : steps) {
    sent += s->sent;
    bad += s->failed + s->wrong;
  }
  report->Add("failed_frac", sent > 0 ? static_cast<double>(bad) / sent : 0.0,
              "frac");
  report->Add("p50_ms.low", low.P50(), "ms");
  report->Add("p99_ms.low", low.P99(), "ms");
  report->Add("p50_ms.high", high.P50(), "ms");
  report->Add("p99_ms.high", high.P99(), "ms");
  report->Add("sustained_rps", sustained, "1/s");
  report->Add("deploy_p50_ms", Quantile(deploy_ms, 0.50), "ms");
  report->Add("deploy_p95_ms", Quantile(deploy_ms, 0.95), "ms");
  report->Add("setup_s", setup.seconds, "s");
  report->Print(kEndToEnd);
  return 0;
}

int RunTraced(const Args& args, Report* report) {
  const Workload& w = *args.workload;
  Setup setup;
  if (!DoSetup(args.seed, &setup, report)) return 1;
  alt::serving::ServingClient* client = setup.system->serving();
  alt::obs::RequestTracer* tracer = client->tracer();
  const double step_s = args.seconds * 0.25;

  RunLadder(client, *setup.zoo, report);

  // Untraced replay of the workload's fixed-rate steps: the baseline of
  // the tracing overhead and the run-validity figures.
  report->Note(std::string("serving: ") + w.name + " (untraced replay)");
  std::vector<StepStats> untraced;
  {
    LoadGenerator generator(client, setup.zoo.get(), w.traffic, args.seed);
    std::unique_ptr<Redeployer> redeployer;
    if (w.redeploys_per_s > 0.0) {
      redeployer = std::make_unique<Redeployer>(client, setup.zoo.get(),
                                                args.seed, w.redeploys_per_s);
    }
    untraced.push_back(generator.Run(w.low_rps, step_s));
    untraced.push_back(generator.Run(w.high_rps, step_s));
    if (redeployer != nullptr) {
      report->Count(static_cast<int64_t>(redeployer->Stop().size()),
                    redeployer->failed());
      if (redeployer->failed() > 0) report->Fail("a redeploy failed");
    }
  }
  for (const StepStats& s : untraced) {
    report->Note(StepLine("replay", s, w.p99_limit_ms));
  }

  // Traced steps at the low rate of both traffic kinds, direct first: the
  // slow-trace ring then still holds every direct request.
  tracer->set_sample_rate(1.0);
  const Workload& direct = w.traffic == Traffic::kDirect ? w : Other(w);
  const Workload& batched = w.traffic == Traffic::kBatched ? w : Other(w);
  StepStats traced_direct, traced_batched;
  {
    Settle(client, report);
    RegistryDelta counts;
    LoadGenerator generator(client, setup.zoo.get(), Traffic::kDirect,
                            args.seed);
    traced_direct = generator.Run(direct.low_rps, step_s);
    Settle(client, report);
    counts.Finish();
    CrossCheck(counts, Traffic::kDirect, {&traced_direct}, report);
    report->Add("seg.route_ms",
                counts.HistMean("serving/trace/segment_ms/route"), "ms");
    report->Add("seg.queue_wait_ms",
                counts.HistMean("serving/trace/segment_ms/queue_wait"), "ms");
    std::vector<double> unattributed;
    for (const auto& trace : tracer->SlowTraces()) {
      if (!trace.ok || trace.total_ms <= 0.0) continue;
      unattributed.push_back(1.0 - trace.SegmentSumMs() / trace.total_ms);
    }
    report->Note("  unattributed share over " +
                 std::to_string(unattributed.size()) + " of " +
                 std::to_string(traced_direct.sent) + " traced requests");
    report->Add("seg.unattributed_frac.p50", Quantile(unattributed, 0.50),
                "frac");
    report->Add("seg.unattributed_frac.p99", Quantile(unattributed, 0.99),
                "frac");
  }
  {
    RegistryDelta counts;
    LoadGenerator generator(client, setup.zoo.get(), Traffic::kBatched,
                            args.seed);
    Redeployer redeployer(client, setup.zoo.get(), args.seed,
                          batched.redeploys_per_s);
    traced_batched = generator.Run(batched.low_rps, step_s);
    const std::vector<double> deploy_ms = redeployer.Stop();
    Settle(client, report);
    counts.Finish();
    report->Count(static_cast<int64_t>(deploy_ms.size()), redeployer.failed());
    if (redeployer.failed() > 0) report->Fail("a redeploy failed");
    CrossCheck(counts, Traffic::kBatched, {&traced_batched}, report);
    report->Add("seg.batch_wait_ms",
                counts.HistMean("serving/trace/segment_ms/batch_wait"), "ms");
    report->Add("serving.batch_predictor.batch_size_mean",
                counts.HistMean("serving/batch_predictor/batch_size"),
                "count");
    report->Add("serving.batch_predictor.queue_high_watermark",
                counts.HistMean("serving/batch_predictor/queue_high_watermark"),
                "count");
    report->Add("serving.coordinator.broadcast_ms_p50",
                counts.HistQuantile("serving/coordinator/broadcast_ms", 0.5),
                "ms");
  }
  tracer->set_sample_rate(0.0);
  report->Note(StepLine("traced", traced_direct, direct.p99_limit_ms));
  report->Note(StepLine("traced", traced_batched, batched.p99_limit_ms));
  CountSteps({&untraced[0], &untraced[1], &traced_direct, &traced_batched},
             report);
  const StepStats& own_traced =
      w.traffic == Traffic::kDirect ? traced_direct : traced_batched;
  report->Add("obs.trace_overhead_frac",
              own_traced.P50() / untraced[0].P50() - 1.0, "frac");
  report->Add("cpu_util", untraced[1].cpu_util, "frac");
  report->Add("loadgen.lag_p99_ms",
              std::max(untraced[0].LagP99(), untraced[1].LagP99()), "ms");

  // Onboarding: OnScenarioArrival on the set-up system gives the reference
  // times and AUCs; a second system initialised the same way runs the
  // stages one by one, scenario by scenario right after the reference, so
  // both see the same host conditions.
  alt::core::AltSystem staged_system(SystemOptions(args.seed, setup.data));
  const alt::Status init = staged_system.Initialize(setup.data.initial);
  if (!init.ok()) {
    report->Fail("second Initialize: " + init.ToString());
  } else {
    const OnboardingRun onboarding = OnboardTraced(
        setup.system.get(), &staged_system, setup.data, report);
    PoolOnboarding(&staged_system, setup.data, onboarding, report);
  }
  report->Add("meta.initialize_s", setup.initialize_s, "s");
  report->Print(kPerLayer);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: alt_perfbench --workload serve_direct|serve_batched "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  // One compute thread: the serving plane already runs four threads on a
  // 4-CPU host, and at these model shapes the ParallelFor pool's hand-offs
  // cost more than they save (README.md, "Compute threads"). The traced run
  // measures the default pool separately.
  alt::SetComputeThreads(1);
  perfbench::Report report;
  return args.trace ? perfbench::RunTraced(args, &report)
                    : perfbench::RunEndToEnd(args, &report);
}
