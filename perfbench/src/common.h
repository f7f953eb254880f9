// Shared pieces of the benchmark: run options, the metric report that
// becomes the last stdout line, seeded dataset generation with the
// paper-default configuration, and small measurement helpers.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/causumx.h"
#include "datagen/common.h"
#include "trace.h"

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for generated CSV/DAG files and the span dump.
  std::string work_dir;
};

/// Timed samples below this count leave p90 without ten samples beyond
/// it, so every timed loop runs until it has at least this many.
inline constexpr size_t kMinTailSamples = 100;

/// How many times a run sets its workload up; setup_s is the median.
inline constexpr int kSetupRepetitions = 3;

/// Collects operation outcomes, sanity checks and metrics for one run.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  bool trace() const { return trace_; }

  /// Records a metric; the unit must match the metric's declaration.
  void Set(const std::string& name, double value);

  /// Counts one attempted operation and whether it failed. A failure
  /// message is printed to stderr (first few only).
  void Op(bool ok, const std::string& what = "");

  /// A workload sanity check: printed on every run, failing the run
  /// when false.
  void Sanity(bool ok, const std::string& what);

  /// A run-level failure outside the counted operations (missing
  /// samples, drift of the traced pipeline, ...).
  void Fail(const std::string& what);

  /// A recorded metric's value (0 when not recorded).
  double Value(const std::string& name) const;

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && run_ok_; }

  /// Fills the metrics of the run's mode: per-layer metrics a workload
  /// does not exercise read 0; a missing end-to-end metric fails the run.
  /// Prints the result object as the last stdout line.
  void Print();

 private:
  bool trace_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool run_ok_ = true;
  int messages_ = 0;
  std::map<std::string, double> values_;
};

/// A metric's declared name and unit (the lists in BENCHMARK.json).
struct MetricDecl {
  const char* name;
  const char* unit;
};
const std::vector<MetricDecl>& EndToEndMetrics();
const std::vector<MetricDecl>& PerLayerMetrics();

/// One of the paper datasets generated from a seed, with the paper
/// default configuration (k=5, theta=0.75, tau=0.1) and its attribute
/// partition around the default query.
struct BenchData {
  std::string name;
  causumx::GeneratedDataset ds;
  causumx::CauSumXConfig config;
  std::vector<std::string> treatment_attributes;
};

/// Generates "SO", "IMPUS-CPS" or "Accidents" with `rows` rows.
BenchData MakeBenchData(const std::string& name, size_t rows, uint64_t seed);

/// SplitMix64 step: independent sub-seeds from the run seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Resets the process's peak-RSS mark, so that PeakRssMb() covers only
/// what runs after this call (the timed phase, not the discarded set-up
/// repetitions or the oracle). Fails the run where the kernel refuses.
void ResetPeakRss(Report* report);

/// Peak resident set size (VmHWM) in MiB since the last reset.
double PeakRssMb();

/// A JSON array of escaped strings.
std::string JsonStringList(const std::vector<std::string>& items);

/// Writes `text` to `path`; throws on failure.
void WriteTextFile(const std::string& path, const std::string& text);

/// Median of a sample vector (0 when empty; callers check counts).
double MedianOr0(const std::vector<double>& v);

/// Records `prefix`.p50 (and .p90 when `with_p90`) of `samples`; a p90
/// without ten samples beyond it fails the run instead of being guessed.
void ReportLatency(Report* report, const std::string& prefix,
                   const std::vector<double>& samples, bool with_p90);

/// Closed-loop deadline rule: keep going until `seconds` have passed and
/// at least `min_samples` were taken, but never past `hard_stop`.
bool KeepGoing(double start, double seconds, size_t samples,
               size_t min_samples, double hard_stop);

/// Hard stop for a timed phase of `seconds`: generous, but bounded so a
/// run always ends well inside the per-run time limit.
double HardStop(double start, double seconds);

/// Median over the spans named `root_name` of SelfTime / Duration: the
/// share of the traced operation that no child span covers.
double UncoveredShare(const std::vector<Span>& spans,
                      const std::string& root_name);

/// Durations of every span named `name`.
std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
