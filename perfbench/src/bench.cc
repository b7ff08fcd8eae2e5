#include "perfbench/src/bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "perfbench/src/phases.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

int NumCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi])) return values[hi];
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Fail(const std::string& reason) { failures_.push_back(reason); }

void Report::Count(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Print(const std::vector<std::string>& json_metrics) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const Metric& m : metrics_) {
    std::printf("%-44s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  bool correct = failures_.empty();
  for (const std::string& reason : failures_) {
    std::printf("CHECK FAILED: %s\n", reason.c_str());
  }
  std::string metrics;
  for (const std::string& name : json_metrics) {
    const Metric* found = nullptr;
    for (const Metric& m : metrics_) {
      if (m.name == name) found = &m;
    }
    if (found == nullptr || !std::isfinite(found->value)) {
      std::printf("CHECK FAILED: metric %s was not measured\n", name.c_str());
      correct = false;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g",
                  found != nullptr && std::isfinite(found->value)
                      ? found->value
                      : 0.0);
    metrics += metrics.empty() ? "" : ", ";
    metrics += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
               (found != nullptr ? found->unit : std::string()) + "\"}";
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, attempted_));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {" + metrics;
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

RegistryDelta::RegistryDelta()
    : before_(alt::obs::MetricsRegistry::Global().TakeSnapshot()) {}

void RegistryDelta::Finish() {
  after_ = alt::obs::MetricsRegistry::Global().TakeSnapshot();
}

namespace {

int64_t FindCounter(const alt::obs::MetricsRegistry::Snapshot& snapshot,
                    const std::string& name) {
  for (const auto& [key, value] : snapshot.counters) {
    if (key == name) return value;
  }
  return 0;
}

}  // namespace

int64_t RegistryDelta::Counter(const std::string& name) const {
  return FindCounter(after_, name) - FindCounter(before_, name);
}

int64_t RegistryDelta::CounterPrefix(const std::string& prefix) const {
  int64_t total = 0;
  for (const auto& [key, value] : after_.counters) {
    if (key.rfind(prefix, 0) == 0) total += value - FindCounter(before_, key);
  }
  return total;
}

alt::obs::HistogramBuckets RegistryDelta::Hist(const std::string& name) const {
  alt::obs::HistogramBuckets out;
  for (const auto& [key, buckets] : after_.histograms) {
    if (key == name) out = buckets;
  }
  for (const auto& [key, buckets] : before_.histograms) {
    if (key != name) continue;
    out.count -= buckets.count;
    out.sum -= buckets.sum;
    for (size_t i = 0; i < out.counts.size() && i < buckets.counts.size();
         ++i) {
      out.counts[i] -= buckets.counts[i];
    }
  }
  return out;
}

double RegistryDelta::HistSum(const std::string& name) const {
  return Hist(name).sum;
}

double RegistryDelta::HistMean(const std::string& name) const {
  const alt::obs::HistogramBuckets h = Hist(name);
  return h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
}

double RegistryDelta::HistQuantile(const std::string& name, double q) const {
  const alt::obs::HistogramBuckets h = Hist(name);
  if (h.count <= 0 || h.counts.empty()) return 0.0;
  const double target = q * static_cast<double>(h.count);
  double seen = 0.0;
  for (size_t i = 0; i < h.counts.size(); ++i) {
    const double in_bucket = static_cast<double>(h.counts[i]);
    if (seen + in_bucket >= target && in_bucket > 0.0) {
      const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
      // The overflow bucket has no upper bound; report its lower edge.
      if (i >= h.bounds.size()) return lo;
      const double hi = h.bounds[i];
      return lo + (hi - lo) * (target - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return h.bounds.empty() ? 0.0 : h.bounds.back();
}

}  // namespace perfbench
