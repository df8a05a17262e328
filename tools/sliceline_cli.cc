// Command-line slice finder: read a CSV, preprocess it (recode + bin),
// train the task-appropriate model (lm / mlogit), and print the top-K
// problematic slices.
//
// Usage:
//   sliceline_cli --csv data.csv --label target [--task reg|class]
//                 [--k 4] [--alpha 0.95] [--sigma 0] [--max-level 0]
//                 [--bins 10] [--drop col1,col2]
//                 [--engine native|la|dist|remote]
//                 [--workers 4] [--fault-seed S] [--fault-transient P]
//                 [--fault-loss P] [--fault-straggler P] [--fault-corrupt P]
//                 [--worker-ports p1,p2,...]
//                 [--deadline-ms MS] [--memory-budget-mb MB]
//                 [--checkpoint-dir DIR] [--resume]
//                 [--metrics-json PATH|-] [--trace-out PATH]
//                 [--log-level debug|info|warn|error]
//
// Every flag also accepts the --flag=value spelling. With --metrics-json=-
// the JSON report owns stdout and all human-readable progress moves to
// stderr, so `sliceline_cli ... --metrics-json=- | jq` just works.
//
// Exit code 0 on success, 1 on usage or data errors.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/run_context.h"
#include "common/string_util.h"
#include "core/report.h"
#include "core/sliceline.h"
#include "core/sliceline_la.h"
#include "data/csv.h"
#include "data/preprocess.h"
#include "dist/coordinator.h"
#include "ml/pipeline.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"

namespace {

struct CliOptions {
  std::string csv_path;
  std::string label;
  std::string task = "reg";
  std::string engine = "native";
  std::vector<std::string> drop;
  std::vector<std::string> worker_ports;
  int k = 4;
  double alpha = 0.95;
  int64_t sigma = 0;
  int max_level = 0;
  int bins = 10;
  int workers = 4;
  uint64_t fault_seed = 0;
  double fault_transient = 0.0;
  double fault_loss = 0.0;
  double fault_straggler = 0.0;
  double fault_corrupt = 0.0;
  int64_t deadline_ms = 0;       ///< 0 = no deadline
  int64_t memory_budget_mb = 0;  ///< 0 = unlimited
  std::string checkpoint_dir;
  bool resume = false;
  std::string metrics_json;  ///< run-report path; "-" = stdout, "" = off
  std::string trace_out;     ///< Chrome trace path; "" = tracing off
  std::string log_level = "info";
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: sliceline_cli --csv FILE --label COLUMN [options]\n"
      "  --task reg|class     prediction task (default reg)\n"
      "  --k N                top-K slices (default 4)\n"
      "  --alpha A            error/size weight in (0,1] (default 0.95)\n"
      "  --sigma S            min support; 0 = max(32, ceil(n/100))\n"
      "  --max-level L        lattice depth cap; 0 = unbounded\n"
      "  --bins B             equi-width bins for numeric features (10)\n"
      "  --drop a,b,c         columns to drop (e.g. ID columns)\n"
      "  --engine native|la|dist|remote  enumeration engine (default\n"
      "                       native); 'dist' runs in-process workers,\n"
      "                       'remote' real sliceline_worker processes\n"
      "  --workers N          in-process workers for --engine dist (4)\n"
      "  --worker-ports p1,p2,...  loopback TCP ports of running\n"
      "                       sliceline_worker processes (--engine remote)\n"
      "  --fault-seed S       fault-injection seed (--engine dist|remote)\n"
      "  --fault-transient P  per-round transient worker failure rate\n"
      "  --fault-loss P       per-round permanent worker loss rate\n"
      "  --fault-straggler P  per-round straggler rate\n"
      "  --fault-corrupt P    per-round partial-corruption rate\n"
      "  --deadline-ms MS     wall-clock deadline; exceeding it returns the\n"
      "                       best-so-far top-K marked PARTIAL (0 = none)\n"
      "  --memory-budget-mb MB  memory budget; soft pressure degrades the\n"
      "                       search, hard pressure stops it (0 = unlimited)\n"
      "  --checkpoint-dir DIR save a resumable checkpoint per level\n"
      "  --resume             continue from DIR's checkpoint if compatible\n"
      "  --metrics-json PATH  write the machine-readable run report (config,\n"
      "                       per-level table, top-K, outcome, metrics\n"
      "                       registry) as strict JSON; '-' writes it to\n"
      "                       stdout and moves human output to stderr\n"
      "  --trace-out PATH     write a Chrome/Perfetto trace of the run\n"
      "  --log-level LEVEL    debug|info|warn|error (default info); logs go\n"
      "                       to stderr\n"
      "Every flag also accepts --flag=value.\n");
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Both "--flag value" and "--flag=value" are accepted; split the inline
    // form here so every branch below sees just the flag name.
    std::string inline_value;
    bool has_inline = false;
    if (arg.size() > 2 && arg.compare(0, 2, "--") == 0) {
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
        has_inline = true;
      }
    }
    auto next = [&](const char* name) -> const char* {
      if (has_inline) return inline_value.c_str();
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--csv") {
      const char* v = next("--csv");
      if (v == nullptr) return false;
      options->csv_path = v;
    } else if (arg == "--label") {
      const char* v = next("--label");
      if (v == nullptr) return false;
      options->label = v;
    } else if (arg == "--task") {
      const char* v = next("--task");
      if (v == nullptr) return false;
      options->task = v;
    } else if (arg == "--engine") {
      const char* v = next("--engine");
      if (v == nullptr) return false;
      options->engine = v;
    } else if (arg == "--k") {
      const char* v = next("--k");
      if (v == nullptr) return false;
      options->k = std::atoi(v);
    } else if (arg == "--alpha") {
      const char* v = next("--alpha");
      if (v == nullptr) return false;
      options->alpha = std::atof(v);
    } else if (arg == "--sigma") {
      const char* v = next("--sigma");
      if (v == nullptr) return false;
      options->sigma = std::atoll(v);
    } else if (arg == "--max-level") {
      const char* v = next("--max-level");
      if (v == nullptr) return false;
      options->max_level = std::atoi(v);
    } else if (arg == "--bins") {
      const char* v = next("--bins");
      if (v == nullptr) return false;
      options->bins = std::atoi(v);
    } else if (arg == "--drop") {
      const char* v = next("--drop");
      if (v == nullptr) return false;
      options->drop = sliceline::Split(v, ',');
    } else if (arg == "--worker-ports") {
      const char* v = next("--worker-ports");
      if (v == nullptr) return false;
      options->worker_ports = sliceline::Split(v, ',');
    } else if (arg == "--workers") {
      const char* v = next("--workers");
      if (v == nullptr) return false;
      options->workers = std::atoi(v);
    } else if (arg == "--fault-seed") {
      const char* v = next("--fault-seed");
      if (v == nullptr) return false;
      options->fault_seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--fault-transient") {
      const char* v = next("--fault-transient");
      if (v == nullptr) return false;
      options->fault_transient = std::atof(v);
    } else if (arg == "--fault-loss") {
      const char* v = next("--fault-loss");
      if (v == nullptr) return false;
      options->fault_loss = std::atof(v);
    } else if (arg == "--fault-straggler") {
      const char* v = next("--fault-straggler");
      if (v == nullptr) return false;
      options->fault_straggler = std::atof(v);
    } else if (arg == "--fault-corrupt") {
      const char* v = next("--fault-corrupt");
      if (v == nullptr) return false;
      options->fault_corrupt = std::atof(v);
    } else if (arg == "--deadline-ms") {
      const char* v = next("--deadline-ms");
      if (v == nullptr) return false;
      options->deadline_ms = std::atoll(v);
    } else if (arg == "--memory-budget-mb") {
      const char* v = next("--memory-budget-mb");
      if (v == nullptr) return false;
      options->memory_budget_mb = std::atoll(v);
    } else if (arg == "--checkpoint-dir") {
      const char* v = next("--checkpoint-dir");
      if (v == nullptr) return false;
      options->checkpoint_dir = v;
    } else if (arg == "--metrics-json") {
      const char* v = next("--metrics-json");
      if (v == nullptr) return false;
      options->metrics_json = v;
    } else if (arg == "--trace-out") {
      const char* v = next("--trace-out");
      if (v == nullptr) return false;
      options->trace_out = v;
    } else if (arg == "--log-level") {
      const char* v = next("--log-level");
      if (v == nullptr) return false;
      options->log_level = v;
    } else if (arg == "--resume") {
      if (has_inline) {
        std::fprintf(stderr, "--resume takes no value\n");
        return false;
      }
      options->resume = true;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  if (options->csv_path.empty() || options->label.empty()) {
    std::fprintf(stderr, "--csv and --label are required\n");
    return false;
  }
  return true;
}

/// Rejects semantically invalid option values before any work starts, with
/// one specific message per failure (exit code 1 via main).
bool ValidateOptions(const CliOptions& options) {
  struct stat st;
  if (stat(options.csv_path.c_str(), &st) != 0) {
    std::fprintf(stderr, "--csv path does not exist: %s\n",
                 options.csv_path.c_str());
    return false;
  }
  if (options.task != "reg" && options.task != "class") {
    std::fprintf(stderr, "--task must be 'reg' or 'class', got '%s'\n",
                 options.task.c_str());
    return false;
  }
  if (options.engine != "native" && options.engine != "la" &&
      options.engine != "dist" && options.engine != "remote") {
    std::fprintf(stderr,
                 "--engine must be 'native', 'la', 'dist' or 'remote', got "
                 "'%s'\n", options.engine.c_str());
    return false;
  }
  if (options.engine == "remote" && options.worker_ports.empty()) {
    std::fprintf(stderr, "--engine remote needs --worker-ports\n");
    return false;
  }
  if (options.k <= 0) {
    std::fprintf(stderr, "--k must be positive, got %d\n", options.k);
    return false;
  }
  if (!(options.alpha > 0.0 && options.alpha <= 1.0)) {
    std::fprintf(stderr, "--alpha must be in (0, 1], got %g\n",
                 options.alpha);
    return false;
  }
  if (options.sigma < 0) {
    std::fprintf(stderr, "--sigma must be >= 0, got %lld\n",
                 static_cast<long long>(options.sigma));
    return false;
  }
  if (options.max_level < 0) {
    std::fprintf(stderr, "--max-level must be >= 0, got %d\n",
                 options.max_level);
    return false;
  }
  if (options.bins <= 0) {
    std::fprintf(stderr, "--bins must be positive, got %d\n", options.bins);
    return false;
  }
  if (options.engine == "dist" && options.workers < 1) {
    std::fprintf(stderr, "--workers must be >= 1, got %d\n", options.workers);
    return false;
  }
  if (options.deadline_ms < 0) {
    std::fprintf(stderr, "--deadline-ms must be >= 0, got %lld\n",
                 static_cast<long long>(options.deadline_ms));
    return false;
  }
  if (options.memory_budget_mb < 0) {
    std::fprintf(stderr, "--memory-budget-mb must be >= 0, got %lld\n",
                 static_cast<long long>(options.memory_budget_mb));
    return false;
  }
  if (options.log_level != "debug" && options.log_level != "info" &&
      options.log_level != "warn" && options.log_level != "error") {
    std::fprintf(stderr,
                 "--log-level must be debug|info|warn|error, got '%s'\n",
                 options.log_level.c_str());
    return false;
  }
  if (options.resume && options.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return false;
  }
  if (!options.checkpoint_dir.empty() &&
      (stat(options.checkpoint_dir.c_str(), &st) != 0 ||
       !S_ISDIR(st.st_mode))) {
    std::fprintf(stderr, "--checkpoint-dir is not a directory: %s\n",
                 options.checkpoint_dir.c_str());
    return false;
  }
  return true;
}

/// Shared tail for every engine: writes the optional trace file and the
/// machine-readable run report. `dist_cost`/`dist_faults` are empty for
/// single-node engines. Returns the process exit code.
int EmitObservabilityOutputs(
    const CliOptions& cli, const sliceline::core::SliceLineConfig& config,
    const sliceline::core::SliceLineResult& result,
    const std::vector<std::string>& feature_names,
    const std::map<std::string, std::map<std::string, double>>& sections) {
  namespace obs = sliceline::obs;
  if (!cli.trace_out.empty()) {
    std::ofstream os(cli.trace_out);
    if (!os) {
      std::fprintf(stderr, "cannot open --trace-out path: %s\n",
                   cli.trace_out.c_str());
      return 1;
    }
    obs::TraceRecorder::Default()->ExportChromeTrace(os);
  }
  if (!cli.metrics_json.empty()) {
    obs::RunReport report;
    report.set_tool("sliceline_cli");
    report.set_engine(cli.engine);
    report.set_dataset(cli.csv_path);
    report.SetConfig(config);
    report.SetResult(result, feature_names);
    for (const auto& [name, values] : sections) {
      report.AddNumericSection(name, {values.begin(), values.end()});
    }
    auto status = obs::WriteRunReportJson(report, cli.metrics_json);
    if (!status.ok()) {
      std::fprintf(stderr, "writing --metrics-json failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sliceline;
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    PrintUsage();
    return 1;
  }
  if (!ValidateOptions(cli)) return 1;

  if (cli.log_level == "debug") {
    SetLogLevel(LogLevel::kDebug);
  } else if (cli.log_level == "warn") {
    SetLogLevel(LogLevel::kWarning);
  } else if (cli.log_level == "error") {
    SetLogLevel(LogLevel::kError);
  } else {
    SetLogLevel(LogLevel::kInfo);
  }
  if (!cli.metrics_json.empty()) obs::SetMetricsEnabled(true);
  if (!cli.trace_out.empty()) obs::TraceRecorder::Default()->SetEnabled(true);
  // With --metrics-json=- the JSON report owns stdout; human-readable
  // progress moves to stderr so stdout stays machine-parseable.
  std::FILE* human = cli.metrics_json == "-" ? stderr : stdout;

  auto frame = data::ReadCsv(cli.csv_path);
  if (!frame.ok()) {
    std::fprintf(stderr, "error reading CSV: %s\n",
                 frame.status().ToString().c_str());
    return 1;
  }
  std::fprintf(human, "read %lld rows x %lld columns from %s\n",
               static_cast<long long>(frame->num_rows()),
               static_cast<long long>(frame->num_columns()),
               cli.csv_path.c_str());

  data::PreprocessOptions popts;
  popts.label_column = cli.label;
  popts.task = cli.task == "class" ? data::Task::kClassification
                                   : data::Task::kRegression;
  popts.num_bins = cli.bins;
  popts.drop_columns = cli.drop;
  auto ds = data::Preprocess(*frame, popts);
  if (!ds.ok()) {
    std::fprintf(stderr, "preprocess failed: %s\n",
                 ds.status().ToString().c_str());
    return 1;
  }

  auto mean_error = ml::TrainAndMaterializeErrors(&*ds);
  if (!mean_error.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 mean_error.status().ToString().c_str());
    return 1;
  }
  std::fprintf(human, "trained %s; mean error = %.6f\n",
               popts.task == data::Task::kRegression ? "lm" : "mlogit",
               *mean_error);

  core::SliceLineConfig config;
  config.k = cli.k;
  config.alpha = cli.alpha;
  config.min_support = cli.sigma;
  config.max_level = cli.max_level;
  config.checkpoint_dir = cli.checkpoint_dir;
  config.resume = cli.resume;
  RunContext run_context;
  MemoryBudget memory_budget(cli.memory_budget_mb * (1 << 20));
  if (cli.deadline_ms > 0 || cli.memory_budget_mb > 0) {
    if (cli.deadline_ms > 0) {
      run_context.SetDeadlineAfterSeconds(
          static_cast<double>(cli.deadline_ms) / 1000.0);
    }
    if (cli.memory_budget_mb > 0) {
      run_context.set_memory_budget(&memory_budget);
    }
    config.run_context = &run_context;
  }
  if (cli.engine == "dist" || cli.engine == "remote") {
    dist::DistOptions dopts;
    if (cli.engine == "dist") {
      dopts.local_workers = cli.workers;
    } else {
      for (const std::string& port : cli.worker_ports) {
        dist::WorkerEndpoint endpoint;
        endpoint.tcp_port = std::atoi(port.c_str());
        if (endpoint.tcp_port <= 0) {
          std::fprintf(stderr, "bad --worker-ports entry: '%s'\n",
                       port.c_str());
          return 1;
        }
        dopts.endpoints.push_back(endpoint);
      }
    }
    dopts.fault.seed = cli.fault_seed;
    dopts.fault.transient_rate = cli.fault_transient;
    dopts.fault.loss_rate = cli.fault_loss;
    dopts.fault.straggler_rate = cli.fault_straggler;
    dopts.fault.corruption_rate = cli.fault_corrupt;
    dist::DistCostStats cost;
    dist::DistFaultStats faults;
    obs::DistObsBundle bundle;
    auto result = dist::RunSliceLineDistributed(ds->x0, ds->errors, config,
                                                dopts, &cost, &faults, &bundle);
    if (!result.ok()) {
      std::fprintf(stderr, "slice finding failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::fprintf(human,
                 "distributed: %d %s workers, %lld rounds, wall-clock "
                 "%.3fs (compute %.3fs + comm %.3fs)\n",
                 static_cast<int>(bundle.sections["dist_cost"]["workers"]),
                 cli.engine == "dist" ? "in-process" : "socket",
                 static_cast<long long>(cost.rounds),
                 cost.critical_path_seconds + cost.EstimatedCommSeconds(),
                 cost.critical_path_seconds, cost.EstimatedCommSeconds());
    std::fprintf(human, "fault recovery: %s\n", faults.Summary().c_str());
    std::fprintf(human, "\n%s",
                 core::FormatResult(*result, ds->feature_names).c_str());
    return EmitObservabilityOutputs(cli, config, *result, ds->feature_names,
                                    bundle.sections);
  }
  auto result = cli.engine == "la"
                    ? core::RunSliceLineLA(*ds, config)
                    : core::RunSliceLine(*ds, config);
  if (!result.ok()) {
    std::fprintf(stderr, "slice finding failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::fprintf(human, "\n%s",
               core::FormatResult(*result, ds->feature_names).c_str());
  return EmitObservabilityOutputs(cli, config, *result, ds->feature_names,
                                  {});
}
