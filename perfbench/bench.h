// Shared pieces of the SliceLine benchmark: run options, the metric report
// that becomes the result line, the in-memory span recorder of the traced
// run, and the bit-exact result comparison behind the output checks.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/slice.h"

namespace perfbench {

namespace core = sliceline::core;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for run artefacts (trace JSON, sockets, CSVs); relative to
  /// the checkout the benchmark runs in.
  std::string work_dir;
};

/// One metric declared in BENCHMARK.json.
struct MetricSpec {
  std::string name;
  std::string unit;
  bool end_to_end = false;
};

/// Reads the end_to_end and per_layer declarations of BENCHMARK.json.
sliceline::StatusOr<std::vector<MetricSpec>> LoadMetricSpecs(
    const std::string& path);

/// Deterministic 64-bit mix of (seed, stream): every generated input is
/// derived from the workload seed through this.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

double NowSeconds();       ///< steady clock
double CpuSeconds();       ///< user + system CPU of this process
double PeakRssMb();        ///< peak resident set of this process
int64_t LlcBytes();        ///< last-level cache size, 0 when unknown

/// Empty when `a` and `b` hold the same top-K bit for bit (predicates,
/// sizes, scores, error sums, max errors); otherwise a one-line diff.
std::string DiffTopK(const core::SliceLineResult& a,
                     const core::SliceLineResult& b);

/// As DiffTopK, but scores and error sums may differ by the tolerance the
/// oracle tests use (the LA engine sums in a different order).
std::string DiffTopKTolerant(const core::SliceLineResult& a,
                             const core::SliceLineResult& b);

/// The metrics of one run and its result line. Metric names and units are
/// the ones BENCHMARK.json declares; the report refuses any other name.
class Report {
 public:
  /// Reports the end_to_end metrics of `specs` in an untraced run and the
  /// per_layer ones in a traced run.
  Report(const Options& options, std::vector<MetricSpec> specs);

  /// Sets a declared metric; one of the other run kind is ignored, an
  /// undeclared name is a benchmark bug.
  void Set(const std::string& name, double value);
  /// Marks a metric whose sample is too thin to report; the run fails.
  void Missing(const std::string& name, const std::string& why);
  /// Per-layer metrics under these prefixes are ones this workload does
  /// not exercise; they are reported as 0 instead of being required.
  void NotExercised(const std::vector<std::string>& prefixes);

  void Attempt(int64_t n = 1) { attempted_ += n; }
  /// Records a failed, refused or wrong operation.
  void Fail(const std::string& what);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// Prints the human-readable metric block and then the JSON result line
  /// (the last line of stdout). Returns the process exit code.
  int Finish();

 private:
  const Options options_;
  std::vector<MetricSpec> specs_;  ///< this run kind's metrics
  std::set<std::string> other_kind_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> missing_;
  std::set<std::string> not_exercised_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Spans recorded by the benchmark around its calls into each layer. All
/// spans of one operation share `op`; `parent` names the enclosing span.
/// Kept in memory and written as Chrome-trace JSON when the run ends.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::string parent;
    int64_t op = 0;
    int tid = 0;
    double start = 0.0;  ///< seconds, steady clock
    double end = 0.0;
  };

  /// RAII span; records on destruction when the recorder is non-null.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name, std::string parent,
          int64_t op, int tid = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the span started.
    double Elapsed() const { return NowSeconds() - span_.start; }

   private:
    SpanRecorder* recorder_;
    Span span_;
  };

  void Add(Span span);
  size_t size() const;
  /// Writes the spans as a Chrome trace ("X" events, microseconds).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  double origin_ = NowSeconds();
};

using Samples = std::vector<double>;

/// Median of `samples`, or 0 when empty.
double MedianOr0(const Samples& samples);

/// Prints one "name: value unit (detail)" line of the human-readable block.
void Info(const std::string& name, const std::string& value);

/// Runs one workload; returns the process exit code.
int RunBatch(const Options& options, Report* report);
int RunServe(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
