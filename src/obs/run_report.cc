#include "obs/run_report.h"

#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <set>

#include "linalg/kernels_simd.h"
#include "obs/json_writer.h"

namespace sliceline::obs {

namespace {

void WriteMetricSample(JsonWriter& json, const MetricSample& sample) {
  json.BeginObject();
  json.Key("name");
  json.String(sample.name);
  switch (sample.kind) {
    case MetricSample::Kind::kCounter:
      json.Key("type");
      json.String("counter");
      json.Key("value");
      json.Int(sample.counter_value);
      break;
    case MetricSample::Kind::kGauge:
      json.Key("type");
      json.String("gauge");
      json.Key("value");
      json.Double(sample.gauge_value);
      break;
    case MetricSample::Kind::kHistogram:
      json.Key("type");
      json.String("histogram");
      json.Key("count");
      json.Int(sample.histogram_count);
      json.Key("sum");
      json.Double(sample.histogram_sum);
      json.Key("bounds");
      json.BeginArray();
      for (double bound : sample.histogram_bounds) json.Double(bound);
      json.EndArray();
      json.Key("buckets");
      json.BeginArray();
      for (int64_t count : sample.histogram_buckets) json.Int(count);
      json.EndArray();
      break;
  }
  json.EndObject();
}

void WriteOutcome(JsonWriter& json, const RunOutcome& outcome) {
  json.BeginObject();
  json.Key("termination");
  json.String(RunOutcome::TerminationName(outcome.termination));
  json.Key("partial");
  json.Bool(outcome.partial);
  json.Key("degradation_steps");
  json.Int(outcome.degradation_steps);
  json.Key("sigma_raised_to");
  json.Int(outcome.sigma_raised_to);
  json.Key("candidates_capped");
  json.Int(outcome.candidates_capped);
  json.Key("stopped_at_level");
  json.Int(outcome.stopped_at_level);
  json.Key("resumed_from_checkpoint");
  json.Bool(outcome.resumed_from_checkpoint);
  json.Key("peak_memory_bytes");
  json.Int(outcome.peak_memory_bytes);
  json.Key("dist_fallback_local");
  json.Bool(outcome.dist_fallback_local);
  // Stream fields only when an incremental run set them: one-shot reports
  // (the golden CLI baseline) keep their exact historical shape.
  if (outcome.stream_candidates_cached > 0 ||
      outcome.stream_candidates_delta > 0 ||
      outcome.stream_candidates_full > 0) {
    json.Key("stream_candidates_cached");
    json.Int(outcome.stream_candidates_cached);
    json.Key("stream_candidates_delta");
    json.Int(outcome.stream_candidates_delta);
    json.Key("stream_candidates_full");
    json.Int(outcome.stream_candidates_full);
  }
  json.Key("summary");
  json.String(outcome.Summary());
  json.EndObject();
}

}  // namespace

void RunReport::SetConfig(const core::SliceLineConfig& config) {
  has_config_ = true;
  config_ = config;
}

void RunReport::SetResult(const core::SliceLineResult& result,
                          const std::vector<std::string>& feature_names) {
  has_result_ = true;
  result_ = result;
  feature_names_ = feature_names;
}

void RunReport::AddNumericSection(
    const std::string& name,
    std::vector<std::pair<std::string, double>> key_values) {
  for (auto& section : sections_) {
    if (section.first == name) {
      for (auto& kv : key_values) section.second.push_back(std::move(kv));
      return;
    }
  }
  sections_.emplace_back(name, std::move(key_values));
}

void RunReport::AddAnnotation(const std::string& key,
                              const std::string& value) {
  annotations_.emplace_back(key, value);
}

void RunReport::WriteJson(std::ostream& os,
                          const MetricsRegistry* registry) const {
  JsonWriter json(os);
  json.BeginObject();
  json.Key("schema_version");
  json.Int(1);
  json.Key("tool");
  json.String(tool_);
  json.Key("engine");
  json.String(engine_);
  // The ISA level the bit-packed evaluation kernels dispatched at (scalar /
  // neon / avx2 / avx512), so perf numbers in BENCH_*.json and --metrics-json
  // reports are attributable to the vector path that produced them.
  json.Key("simd_isa");
  json.String(linalg::SelectedIsaName());
  if (!dataset_.empty()) {
    json.Key("dataset");
    json.String(dataset_);
  }

  if (has_config_) {
    json.Key("config");
    json.BeginObject();
    json.Key("k");
    json.Int(config_.k);
    json.Key("alpha");
    json.Double(config_.alpha);
    json.Key("min_support");
    json.Int(config_.min_support);
    json.Key("max_level");
    json.Int(config_.max_level);
    json.Key("prune_size");
    json.Bool(config_.prune_size);
    json.Key("prune_score");
    json.Bool(config_.prune_score);
    json.Key("prune_parents");
    json.Bool(config_.prune_parents);
    json.Key("deduplicate");
    json.Bool(config_.deduplicate);
    json.Key("eval_strategy");
    json.String(core::EvalStrategyName(config_.eval_strategy));
    json.Key("eval_block_size");
    json.Int(config_.eval_block_size);
    json.Key("parallel");
    json.Bool(config_.parallel);
    json.EndObject();
  }

  if (has_result_) {
    json.Key("totals");
    json.BeginObject();
    json.Key("total_seconds");
    json.Double(result_.total_seconds);
    json.Key("total_evaluated");
    json.Int(result_.total_evaluated);
    json.Key("average_error");
    json.Double(result_.average_error);
    json.Key("resolved_min_support");
    json.Int(result_.min_support);
    json.Key("levels");
    json.Int(static_cast<int64_t>(result_.levels.size()));
    json.EndObject();

    json.Key("levels");
    json.BeginArray();
    for (const core::LevelStats& level : result_.levels) {
      json.BeginObject();
      json.Key("level");
      json.Int(level.level);
      json.Key("candidates");
      json.Int(level.candidates);
      json.Key("valid");
      json.Int(level.valid);
      json.Key("pruned");
      json.Int(level.pruned);
      json.Key("seconds");
      json.Double(level.seconds);
      json.EndObject();
    }
    json.EndArray();

    json.Key("top_k");
    json.BeginArray();
    for (const core::Slice& slice : result_.top_k) {
      json.BeginObject();
      json.Key("predicates");
      json.BeginArray();
      for (const auto& [feature, code] : slice.predicates) {
        json.BeginObject();
        json.Key("feature");
        json.Int(feature);
        if (feature >= 0 &&
            static_cast<size_t>(feature) < feature_names_.size()) {
          json.Key("feature_name");
          json.String(feature_names_[feature]);
        }
        json.Key("code");
        json.Int(code);
        json.EndObject();
      }
      json.EndArray();
      json.Key("display");
      json.String(slice.ToString(feature_names_));
      json.Key("score");
      json.Double(slice.stats.score);
      json.Key("size");
      json.Int(slice.stats.size);
      json.Key("error_sum");
      json.Double(slice.stats.error_sum);
      json.Key("max_error");
      json.Double(slice.stats.max_error);
      json.EndObject();
    }
    json.EndArray();

    json.Key("outcome");
    WriteOutcome(json, result_.outcome);
  }

  if (!sections_.empty()) {
    json.Key("sections");
    json.BeginObject();
    for (const auto& [name, key_values] : sections_) {
      json.Key(name);
      json.BeginObject();
      for (const auto& [key, value] : key_values) {
        json.Key(key);
        json.Double(value);
      }
      json.EndObject();
    }
    json.EndObject();
  }

  if (!annotations_.empty()) {
    json.Key("annotations");
    json.BeginObject();
    for (const auto& [key, value] : annotations_) {
      json.Key(key);
      json.String(value);
    }
    json.EndObject();
  }

  if (registry != nullptr) {
    json.Key("metrics");
    json.BeginArray();
    for (const MetricSample& sample : registry->Snapshot()) {
      WriteMetricSample(json, sample);
    }
    json.EndArray();
  }

  json.EndObject();
  os << '\n';
}

std::string PrometheusMetricName(const std::string& name) {
  std::string out = "sliceline_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void RunReport::WritePrometheus(std::ostream& os,
                                const MetricsRegistry* registry) {
  if (registry == nullptr) return;
  char buffer[64];
  const auto format_double = [&buffer](double v) -> const char* {
    std::snprintf(buffer, sizeof(buffer), "%.17g", v);
    return buffer;
  };
  // Distinct registry names can sanitize to the same exposition name
  // ("eval time" and "eval.time" both become sliceline_eval_time); a second
  // # TYPE line for an already-introduced family is invalid exposition, so
  // collisions get a numeric suffix. Snapshot() is sorted by registry name,
  // which makes the suffix assignment deterministic.
  std::set<std::string> emitted;
  for (const MetricSample& sample : registry->Snapshot()) {
    std::string name = PrometheusMetricName(sample.name);
    const std::string base = name;
    for (int k = 2; !emitted.insert(name).second; ++k) {
      name = base + "_" + std::to_string(k);
    }
    switch (sample.kind) {
      case MetricSample::Kind::kCounter:
        os << "# TYPE " << name << " counter\n";
        os << name << ' ' << sample.counter_value << '\n';
        break;
      case MetricSample::Kind::kGauge:
        os << "# TYPE " << name << " gauge\n";
        os << name << ' ' << format_double(sample.gauge_value) << '\n';
        break;
      case MetricSample::Kind::kHistogram: {
        os << "# TYPE " << name << " histogram\n";
        int64_t cumulative = 0;
        for (size_t i = 0; i < sample.histogram_bounds.size(); ++i) {
          cumulative += sample.histogram_buckets[i];
          os << name << "_bucket{le=\""
             << format_double(sample.histogram_bounds[i]) << "\"} "
             << cumulative << '\n';
        }
        os << name << "_bucket{le=\"+Inf\"} " << sample.histogram_count
           << '\n';
        os << name << "_sum " << format_double(sample.histogram_sum) << '\n';
        os << name << "_count " << sample.histogram_count << '\n';
        break;
      }
    }
  }
}

namespace {

Status WithOutputStream(const std::string& path,
                        const std::function<void(std::ostream&)>& write) {
  if (path == "-") {
    write(std::cout);
    std::cout.flush();
    return Status::OK();
  }
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  if (!file.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  write(file);
  file.flush();
  if (!file.good()) {
    return Status::IoError("write failed: " + path);
  }
  return Status::OK();
}

}  // namespace

Status WriteRunReportJson(const RunReport& report, const std::string& path,
                          const MetricsRegistry* registry) {
  return WithOutputStream(path, [&](std::ostream& os) {
    report.WriteJson(os, registry);
  });
}

Status WritePrometheusFile(const std::string& path,
                           const MetricsRegistry* registry) {
  return WithOutputStream(path, [&](std::ostream& os) {
    RunReport::WritePrometheus(os, registry);
  });
}

}  // namespace sliceline::obs
