#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json_parse.h"
#include "obs/json_writer.h"
#include "stats.h"

namespace perfbench {

using sliceline::Status;
using sliceline::StatusOr;

StatusOr<std::vector<MetricSpec>> LoadMetricSpecs(const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) return Status::NotFound("cannot open " + path);
  std::ostringstream text;
  text << file.rdbuf();
  SLICELINE_ASSIGN_OR_RETURN(sliceline::obs::JsonValue doc,
                             sliceline::obs::ParseJson(text.str()));
  std::vector<MetricSpec> specs;
  for (const char* kind : {"end_to_end", "per_layer"}) {
    const sliceline::obs::JsonValue* list = doc.Find(kind);
    if (list == nullptr || !list->is_array()) {
      return Status::InvalidArgument(path + ": missing '" + kind + "' list");
    }
    for (const sliceline::obs::JsonValue& item : list->array_items()) {
      MetricSpec spec;
      SLICELINE_ASSIGN_OR_RETURN(spec.name, item.RequireString("name"));
      SLICELINE_ASSIGN_OR_RETURN(spec.unit, item.RequireString("unit"));
      spec.end_to_end = std::string(kind) == "end_to_end";
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer over the combined input.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t LlcBytes() {
  const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return bytes > 0 ? bytes : 0;
}

namespace {

std::string DiffTopKImpl(const core::SliceLineResult& a,
                         const core::SliceLineResult& b, double tolerance) {
  if (a.top_k.size() != b.top_k.size()) {
    return "top-K sizes " + std::to_string(a.top_k.size()) + " vs " +
           std::to_string(b.top_k.size());
  }
  const auto close = [tolerance](double x, double y) {
    return tolerance == 0.0 ? x == y : std::abs(x - y) <= tolerance;
  };
  for (size_t i = 0; i < a.top_k.size(); ++i) {
    const core::Slice& x = a.top_k[i];
    const core::Slice& y = b.top_k[i];
    std::string what;
    if (x.predicates != y.predicates) {
      what = "predicates";
    } else if (x.stats.size != y.stats.size) {
      what = "size";
    } else if (!close(x.stats.score, y.stats.score)) {
      what = "score";
    } else if (!close(x.stats.error_sum, y.stats.error_sum)) {
      what = "error_sum";
    } else if (!close(x.stats.max_error, y.stats.max_error)) {
      what = "max_error";
    }
    if (!what.empty()) {
      return "slice " + std::to_string(i) + " differs in " + what + ": " +
             x.ToString() + " vs " + y.ToString();
    }
  }
  return "";
}

}  // namespace

std::string DiffTopK(const core::SliceLineResult& a,
                     const core::SliceLineResult& b) {
  return DiffTopKImpl(a, b, 0.0);
}

std::string DiffTopKTolerant(const core::SliceLineResult& a,
                             const core::SliceLineResult& b) {
  // The tolerance of the oracle tests (testing/checks.h kScoreTolerance).
  return DiffTopKImpl(a, b, 1e-9);
}

Report::Report(const Options& options, std::vector<MetricSpec> specs)
    : options_(options) {
  for (MetricSpec& spec : specs) {
    if (spec.end_to_end == !options.trace) {
      specs_.push_back(std::move(spec));
    } else {
      other_kind_.insert(spec.name);
    }
  }
}

void Report::Set(const std::string& name, double value) {
  if (other_kind_.count(name) > 0) return;
  bool declared = false;
  for (const MetricSpec& spec : specs_) declared |= spec.name == name;
  if (!declared || values_.count(name) > 0 || !std::isfinite(value)) {
    std::fprintf(stderr, "perfbench: bad metric %s\n", name.c_str());
    std::abort();
  }
  values_[name] = value;
}

void Report::Missing(const std::string& name, const std::string& why) {
  if (other_kind_.count(name) > 0) return;
  missing_[name] = why;
}

void Report::NotExercised(const std::vector<std::string>& prefixes) {
  not_exercised_.insert(prefixes.begin(), prefixes.end());
}

void Report::Fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

int Report::Finish() {
  bool correct = failed_ == 0;
  std::printf("-- metrics (%s, %s run) --\n", options_.workload.c_str(),
              options_.trace ? "traced" : "untraced");
  std::vector<std::pair<const MetricSpec*, double>> reported;
  for (const MetricSpec& spec : specs_) {
    const auto missing = missing_.find(spec.name);
    const auto value = values_.find(spec.name);
    if (missing != missing_.end()) {
      std::printf("%-32s missing (%s)\n", spec.name.c_str(),
                  missing->second.c_str());
      correct = false;
      continue;
    }
    double v = 0.0;
    if (value != values_.end()) {
      v = value->second;
    } else {
      bool skipped = false;
      for (const std::string& prefix : not_exercised_) {
        skipped |= spec.name.rfind(prefix, 0) == 0;
      }
      if (!skipped || spec.end_to_end) {
        std::printf("%-32s not measured\n", spec.name.c_str());
        correct = false;
        continue;
      }
    }
    std::printf("%-32s %.6g %s\n", spec.name.c_str(), v, spec.unit.c_str());
    reported.emplace_back(&spec, v);
  }
  if (!not_exercised_.empty()) {
    std::string list;
    for (const std::string& prefix : not_exercised_) list += " " + prefix;
    std::printf("(layers not exercised by this workload, reported as 0:%s)\n",
                list.c_str());
  }
  for (const std::string& failure : failures_) {
    std::printf("FAILED: %s\n", failure.c_str());
  }

  std::ostringstream line;
  sliceline::obs::JsonWriter writer(line);
  writer.BeginObject();
  writer.Key("correct");
  writer.Bool(correct);
  writer.Key("attempted");
  writer.Int(std::max<int64_t>({attempted_, failed_, 1}));
  writer.Key("failed");
  writer.Int(failed_);
  writer.Key("metrics");
  writer.BeginObject();
  for (const auto& [spec, v] : reported) {
    writer.Key(spec->name);
    writer.BeginObject();
    writer.Key("value");
    writer.Double(v);
    writer.Key("unit");
    writer.String(spec->unit);
    writer.EndObject();
  }
  writer.EndObject();
  writer.EndObject();
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, std::string name,
                           std::string parent, int64_t op, int tid)
    : recorder_(recorder) {
  span_.name = std::move(name);
  span_.parent = std::move(parent);
  span_.op = op;
  span_.tid = tid;
  span_.start = NowSeconds();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  span_.end = NowSeconds();
  recorder_->Add(std::move(span_));
}

void SpanRecorder::Add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream file(path);
  if (!file.is_open()) return false;
  sliceline::obs::JsonWriter writer(file);
  writer.BeginObject();
  writer.Key("displayTimeUnit");
  writer.String("ms");
  writer.Key("traceEvents");
  writer.BeginArray();
  for (const Span& span : spans_) {
    writer.BeginObject();
    writer.Key("name");
    writer.String(span.name);
    writer.Key("cat");
    writer.String("perfbench");
    writer.Key("ph");
    writer.String("X");
    writer.Key("ts");
    writer.Double((span.start - origin_) * 1e6);
    writer.Key("dur");
    writer.Double((span.end - span.start) * 1e6);
    writer.Key("pid");
    writer.Int(1);
    writer.Key("tid");
    writer.Int(span.tid);
    writer.Key("args");
    writer.BeginObject();
    writer.Key("op");
    writer.Int(span.op);
    writer.Key("parent");
    writer.String(span.parent);
    writer.EndObject();
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  file << '\n';
  return static_cast<bool>(file);
}

double MedianOr0(const Samples& samples) {
  return Median(samples).value_or(0.0);
}

void Info(const std::string& name, const std::string& value) {
  std::printf("%-32s %s\n", name.c_str(), value.c_str());
}

}  // namespace perfbench
