// Shared pieces of the ALT benchmark: clocks, quantiles, the metric report,
// and the per-workload shape constants.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch).
double NowSeconds();
/// User + system CPU seconds of this process so far.
double CpuSeconds();
/// Peak resident set size of this process in MiB.
double PeakRssMb();
/// Logical CPUs the process may use.
int NumCpus();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
/// Infinite entries (failed requests) sort last, so a quantile that lands
/// on one is infinite.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Metrics and checks of one benchmark run. Metrics print as
/// `name = value unit` lines; the last line of stdout is the JSON object
/// the benchmark contract asks for.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// A human-readable line printed with the report (not part of the JSON).
  void Note(const std::string& line);
  /// Records a failed output or population check; the run is then
  /// reported as incorrect.
  void Fail(const std::string& reason);
  /// Operations attempted and failed, summed over every phase.
  void Count(int64_t attempted, int64_t failed);

  /// Prints notes, metrics and failures, then the JSON line with the
  /// metrics named in `json_metrics`; one that was never added makes the
  /// run incorrect.
  void Print(const std::vector<std::string>& json_metrics) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
