// The serve-mixed workload: an in-process serve::Server (2 workers) on a
// Unix socket, driven by two client connections in a closed loop, since
// daemon callers each wait for their reply.
//
// Set-up generates adult (n=32,561) and criteo (n=10,000), writes them as
// CSVs, starts the server, registers both (the server trains a model to
// materialize errors) and puts a watch on adult. These base tables come
// from a fixed generator seed: a miss's cost shifts by tens of percent
// with the generator seed, which would swamp the serving figures. The
// workload seed draws the traffic: each client's config sequence and the
// appended rows.
//
// Each client issues find_slices drawn with a seeded skew from its own part
// of a fixed pool of (dataset, k, alpha, sigma) configs. After every
// kFindsPerAppend finds of each client the two meet at a barrier, where an
// append_rows of 1% of adult's rows is sent; it invalidates adult's cached
// results and runs the watch's incremental find inside the request. The
// pool and the append rate put the cache hit ratio near 0.7, so the median
// find is a cache hit (serve-layer cost) and the 90th percentile a miss
// (engine cost). With disjoint config sets and appends at the barrier,
// which finds hit is fixed by the seed, not by thread timing; every reply's
// dataset version is known, and each cache hit is checked against the miss
// that filled it.
//
// Growth is bounded: after kAppendsPerEpoch appends (adult +25%) the epoch
// ends and, outside the timed loop, the daemon is replaced by a fresh one
// serving the base tables. The daemon keeps every finished job, which pins
// the dataset version it ran on, so without the restart its memory would
// grow with the number of finds a run completes and peak_rss_mb would
// follow the run's throughput instead of the daemon's working set.
#include <atomic>
#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <vector>

#include "bench.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/sliceline.h"
#include "core/sliceline_la.h"
#include "data/generators/generators.h"
#include "data/preprocess.h"
#include "serve/client.h"
#include "serve/server.h"
#include "stats.h"

namespace perfbench {

namespace data = sliceline::data;
namespace serve = sliceline::serve;
using sliceline::Status;
using sliceline::StatusOr;

namespace {

constexpr int64_t kAdultRows = 32561;
constexpr int64_t kCriteoRows = 10000;
constexpr int kSetupRepeats = 3;
constexpr int kClients = 2;
constexpr int kServerWorkers = 2;
/// Finds of each client between two appends.
constexpr int kFindsPerAppend = 6;
constexpr int64_t kAppendRows = kAdultRows / 100;
/// Appends per epoch; adult grows by at most this many percent.
constexpr int kAppendsPerEpoch = 25;
constexpr int kMaxLevel = 3;
/// Generator seed of the registered base tables (the generators' default).
constexpr uint64_t kBaseSeed = 42;

struct PoolConfig {
  int client;  ///< the client that draws this config
  const char* dataset;
  int64_t k;
  double alpha;
  int64_t sigma;  ///< 0 = max(32, n/100)
  double weight;  ///< relative draw probability (the skew)
};

// adult configs are re-missed after every append; criteo configs miss once
// per run and then stay cached.
const PoolConfig kPool[] = {
    {0, "adult", 4, 0.95, 0, 6.0},   {0, "adult", 8, 0.95, 0, 1.5},
    {0, "adult", 4, 0.95, 500, 1.0}, {0, "criteo", 4, 0.95, 0, 3.0},
    {0, "criteo", 8, 0.95, 0, 2.0},  {1, "adult", 4, 0.90, 0, 6.0},
    {1, "adult", 8, 0.90, 500, 1.5}, {1, "adult", 4, 0.99, 0, 1.0},
    {1, "criteo", 4, 0.90, 0, 3.0},  {1, "criteo", 4, 0.95, 200, 2.0},
};
constexpr int kPoolSize = sizeof(kPool) / sizeof(kPool[0]);

core::SliceLineConfig EngineConfig(const PoolConfig& c) {
  core::SliceLineConfig config;
  config.k = static_cast<int>(c.k);
  config.alpha = c.alpha;
  config.min_support = c.sigma;
  config.max_level = kMaxLevel;
  return config;
}

serve::FindSlicesRequest FindRequest(const PoolConfig& c) {
  serve::FindSlicesRequest request;
  request.dataset = c.dataset;
  request.k = c.k;
  request.alpha = c.alpha;
  request.sigma = c.sigma;
  request.max_level = kMaxLevel;
  return request;
}

/// The CSV cell of a feature code: a string, so the server recodes the
/// column as categorical and an append can name the same category.
std::string Cell(int32_t code) {
  std::string cell = std::to_string(code);
  cell.insert(cell.begin(), 'v');
  return cell;
}

/// Writes features as categorical cells ("v<code>") plus a numeric label.
Status WriteDatasetCsv(const data::EncodedDataset& ds,
                       const std::string& path) {
  std::ofstream file(path);
  if (!file.is_open()) return Status::IoError("cannot write " + path);
  for (int64_t j = 0; j < ds.m(); ++j) file << 'c' << j << ',';
  file << "label\n";
  for (int64_t i = 0; i < ds.n(); ++i) {
    for (int64_t j = 0; j < ds.m(); ++j) file << 'v' << ds.x0.At(i, j) << ',';
    file << static_cast<int>(ds.y[static_cast<size_t>(i)]) << '\n';
  }
  file.flush();
  return file ? Status::OK() : Status::IoError("short write to " + path);
}

/// Rows appended to adult: generated from their own seed, keeping only
/// rows whose every cell the registered dictionary has seen (an unseen
/// category is refused by design).
struct AppendPool {
  std::vector<std::vector<std::string>> rows;
  std::vector<double> errors;
};

StatusOr<AppendPool> MakeAppendPool(const data::EncodedDataset& base,
                                    uint64_t seed) {
  std::vector<std::set<int32_t>> seen(static_cast<size_t>(base.m()));
  for (int64_t i = 0; i < base.n(); ++i) {
    for (int64_t j = 0; j < base.m(); ++j) seen[j].insert(base.x0.At(i, j));
  }
  const int64_t needed = kAppendRows * kAppendsPerEpoch;
  data::DatasetOptions generator;
  generator.rows = needed * 2;
  generator.seed = seed;
  SLICELINE_ASSIGN_OR_RETURN(data::EncodedDataset extra,
                             data::MakeDatasetByName("adult", generator));
  AppendPool pool;
  for (int64_t i = 0; i < extra.n() && pool.rows.size() < size_t(needed); ++i) {
    std::vector<std::string> row;
    bool known = true;
    for (int64_t j = 0; j < extra.m() && known; ++j) {
      known = seen[j].count(extra.x0.At(i, j)) > 0;
      row.push_back(Cell(extra.x0.At(i, j)));
    }
    if (!known) continue;
    pool.rows.push_back(std::move(row));
    pool.errors.push_back(extra.errors[static_cast<size_t>(i)]);
  }
  if (pool.rows.size() < size_t(needed)) {
    return Status::Internal("append pool too small");
  }
  return pool;
}

/// A running server with both datasets registered and adult watched.
struct Daemon {
  std::unique_ptr<serve::Server> server;
  std::optional<serve::Client> control;
  std::string socket;

  ~Daemon() {
    control.reset();
    if (server != nullptr) {
      server->RequestShutdown();
      server->Wait();
    }
    if (!socket.empty()) unlink(socket.c_str());
  }
};

/// The generated tables, written as CSVs, and the daemon serving them.
struct Deployment {
  std::string socket;
  std::string adult_csv;
  std::string criteo_csv;
  std::unique_ptr<Daemon> daemon;

  ~Deployment() {
    daemon.reset();
    if (!adult_csv.empty()) unlink(adult_csv.c_str());
    if (!criteo_csv.empty()) unlink(criteo_csv.c_str());
  }
};

serve::RegisterDatasetRequest Registration(const std::string& name,
                                           const std::string& csv) {
  serve::RegisterDatasetRequest request;
  request.name = name;
  request.csv_path = csv;
  request.label = "label";
  request.task = "class";
  return request;
}

serve::WatchRequest AdultWatch() {
  serve::WatchRequest watch;
  watch.dataset = "adult";
  watch.tau = 1e9;  // monitoring cost without alert traffic
  watch.window_rows = kAdultRows / 5;
  watch.k = 4;
  watch.alpha = 0.95;
  watch.max_level = kMaxLevel;
  return watch;
}

/// Starts a server on the deployment's socket, registers both CSVs (adult's
/// registration time goes to `register_ms`) and watches adult.
StatusOr<std::unique_ptr<Daemon>> StartDaemon(const Deployment& deployment,
                                              Samples* register_ms) {
  auto daemon = std::make_unique<Daemon>();
  serve::ServerOptions server_options;
  server_options.unix_socket = deployment.socket;
  server_options.workers = kServerWorkers;
  // End-to-end figures are taken with tracing off.
  server_options.fleet_tracing = false;
  daemon->server = std::make_unique<serve::Server>(server_options);
  SLICELINE_RETURN_NOT_OK(daemon->server->Start());
  daemon->socket = deployment.socket;
  SLICELINE_ASSIGN_OR_RETURN(
      serve::Client control,
      serve::Client::Connect(serve::Endpoint::Unix(deployment.socket)));
  daemon->control.emplace(std::move(control));

  const double start = NowSeconds();
  SLICELINE_RETURN_NOT_OK(
      daemon->control
          ->RegisterDataset(Registration("adult", deployment.adult_csv))
          .status());
  register_ms->push_back((NowSeconds() - start) * 1e3);
  SLICELINE_RETURN_NOT_OK(
      daemon->control
          ->RegisterDataset(Registration("criteo", deployment.criteo_csv))
          .status());
  SLICELINE_RETURN_NOT_OK(daemon->control->Watch(AdultWatch()).status());
  return daemon;
}

/// Generation, CSV writing, server start, registration and the watch:
/// everything setup_s times.
StatusOr<std::unique_ptr<Deployment>> SetUp(const Options& options,
                                            double* generate_ms,
                                            Samples* register_ms) {
  auto deployment = std::make_unique<Deployment>();
  const std::string prefix =
      options.work_dir + "/serve" + std::to_string(getpid());
  deployment->socket = prefix + ".sock";
  deployment->adult_csv = prefix + "_adult.csv";
  deployment->criteo_csv = prefix + "_criteo.csv";

  const double gen_start = NowSeconds();
  data::DatasetOptions adult_options;
  adult_options.rows = kAdultRows;
  adult_options.seed = kBaseSeed;
  SLICELINE_ASSIGN_OR_RETURN(data::EncodedDataset adult,
                             data::MakeDatasetByName("adult", adult_options));
  data::DatasetOptions criteo_options;
  criteo_options.rows = kCriteoRows;
  criteo_options.seed = kBaseSeed;
  SLICELINE_ASSIGN_OR_RETURN(data::EncodedDataset criteo,
                             data::MakeDatasetByName("criteo", criteo_options));
  *generate_ms = (NowSeconds() - gen_start) * 1e3;

  SLICELINE_RETURN_NOT_OK(WriteDatasetCsv(adult, deployment->adult_csv));
  SLICELINE_RETURN_NOT_OK(WriteDatasetCsv(criteo, deployment->criteo_csv));
  SLICELINE_ASSIGN_OR_RETURN(deployment->daemon,
                             StartDaemon(*deployment, register_ms));
  return deployment;
}

/// Observations of one measured phase.
struct Phase {
  Samples find_ms, hit_ms, append_ms, reply_bytes, invalidated;
  Samples queued_ms, run_ms, overhead_ms;  // traced phase, misses
  int64_t hits = 0;
  int64_t watch_evaluations = 0;
  int64_t window_rebuilds = 0;
  double seconds = 0.0;
};

/// Identity of a result: (epoch, adult version, pool config). criteo never
/// changes, so its key is (0, 0, config).
using ResultKey = std::tuple<int64_t, int64_t, int>;

class ServeRun {
 public:
  ServeRun(const Options& options, Report* report, Deployment* deployment,
           AppendPool pool)
      : options_(options),
        report_(report),
        deployment_(deployment),
        pool_(std::move(pool)) {}

  Status Prepare();
  /// Runs epochs until `budget` seconds of loop time have passed.
  Status RunPhase(double budget, SpanRecorder* spans, Phase* phase);
  /// Cross-checks the criteo reference against RunSliceLineLA.
  void CrossCheckLa();
  double register_ms() const { return MedianOr0(register_ms_); }
  void AddRegisterMs(const Samples& ms) {
    register_ms_.insert(register_ms_.end(), ms.begin(), ms.end());
  }

 private:
  /// Runs at the barrier, once both clients have arrived: ends the epoch
  /// or sends the next append.
  struct BarrierStep {
    ServeRun* run;
    double deadline;
    SpanRecorder* spans;
    Phase* phase;
    void operator()() noexcept;
  };
  void ClientLoop(int c, std::barrier<BarrierStep>* sync, SpanRecorder* spans,
                  Phase* phase);
  void Find(int c, int config, SpanRecorder* spans, Phase* phase);
  /// Sends the epoch's next append from client 0; runs at the barrier.
  void Append(SpanRecorder* spans, Phase* phase);
  /// Splits each traced miss of the interval into the server's queue and
  /// run time (get_status) and the rest; runs at the barrier, so the
  /// requests do not overlap the measured finds.
  void SplitTracedMisses(SpanRecorder* spans, Phase* phase);
  Status EndEpoch(Phase* phase);
  /// Replaces the daemon with a fresh one serving the base tables.
  Status Restart();
  Status Connect();

  const Options& options_;
  Report* report_;
  Deployment* deployment_;
  AppendPool pool_;
  std::vector<serve::Client> clients_;
  std::vector<core::SliceLineResult> criteo_reference_;  // by pool index
  std::shared_ptr<const serve::RegisteredDataset> adult_base_;
  Samples register_ms_;
  int64_t epoch_ = 0;
  /// Whether an epoch has run on the current daemon.
  bool daemon_used_ = false;
  std::atomic<int64_t> next_op_{1};

  // Written only at the barrier, while both clients wait.
  int64_t adult_version_ = 0;
  int appends_in_epoch_ = 0;
  bool epoch_over_ = false;

  // Results of misses so far, for the hit/miss consistency check.
  std::mutex results_mutex_;
  std::map<ResultKey, core::SliceLineResult> misses_;
  /// Misses of the traced phase awaiting their get_status split.
  struct TracedMiss {
    int64_t op;
    int64_t job_id;
    double seconds;  ///< client-observed latency
  };
  std::vector<TracedMiss> traced_misses_;
};

void ServeRun::SplitTracedMisses(SpanRecorder* spans, Phase* phase) {
  for (const TracedMiss& miss : traced_misses_) {
    SpanRecorder::Scope span(spans, "serve.get_status", "find", miss.op, 1);
    report_->Attempt();
    StatusOr<sliceline::obs::JsonValue> job =
        clients_[0].GetStatus(miss.job_id);
    if (!job.ok()) {
      report_->Fail("get_status: " + job.status().ToString());
      continue;
    }
    const double queued = job->GetNumberOr("queued_seconds", 0.0);
    const double run = job->GetNumberOr("run_seconds", 0.0);
    phase->queued_ms.push_back(queued * 1e3);
    phase->run_ms.push_back(run * 1e3);
    phase->overhead_ms.push_back((miss.seconds - queued - run) * 1e3);
  }
  traced_misses_.clear();
}

Status ServeRun::Connect() {
  clients_.clear();
  for (int c = 0; c < kClients; ++c) {
    SLICELINE_ASSIGN_OR_RETURN(
        serve::Client client,
        serve::Client::Connect(serve::Endpoint::Unix(deployment_->socket)));
    clients_.push_back(std::move(client));
  }
  adult_base_ = deployment_->daemon->server->registry().Find("adult");
  if (adult_base_ == nullptr) return Status::Internal("adult not registered");
  return Status::OK();
}

Status ServeRun::Prepare() {
  SLICELINE_RETURN_NOT_OK(Connect());
  std::shared_ptr<const serve::RegisteredDataset> criteo =
      deployment_->daemon->server->registry().Find("criteo");
  if (criteo == nullptr) return Status::Internal("criteo not registered");
  // Serial native references for every criteo config (untimed).
  criteo_reference_.resize(kPoolSize);
  for (int i = 0; i < kPoolSize; ++i) {
    if (std::string(kPool[i].dataset) != "criteo") continue;
    core::SliceLineConfig config = EngineConfig(kPool[i]);
    config.parallel = false;
    SLICELINE_ASSIGN_OR_RETURN(
        criteo_reference_[i],
        core::RunSliceLine(criteo->dataset.x0, criteo->dataset.errors,
                           config));
  }
  return Status::OK();
}

void ServeRun::CrossCheckLa() {
  std::shared_ptr<const serve::RegisteredDataset> criteo =
      deployment_->daemon->server->registry().Find("criteo");
  int index = 0;
  while (std::string(kPool[index].dataset) != "criteo") ++index;
  report_->Attempt();
  StatusOr<core::SliceLineResult> la = core::RunSliceLineLA(
      criteo->dataset.x0, criteo->dataset.errors, EngineConfig(kPool[index]));
  const std::string diff = la.ok()
                               ? DiffTopKTolerant(*la, criteo_reference_[index])
                               : la.status().ToString();
  if (!diff.empty()) report_->Fail("LA cross-check (criteo): " + diff);
  Info("la_crosscheck", diff.empty() ? "match (criteo)" : "MISMATCH");
}

void ServeRun::Find(int c, int config, SpanRecorder* spans, Phase* phase) {
  const PoolConfig& pc = kPool[config];
  const bool adult = std::string(pc.dataset) == "adult";
  const int64_t version = adult ? adult_version_ : 0;
  const int64_t op = next_op_++;
  StatusOr<serve::FindSlicesReply> reply = Status::Internal("not sent");
  double seconds = 0.0;
  {
    SpanRecorder::Scope span(spans, "find", "", op, c + 1);
    const double start = NowSeconds();
    reply = clients_[c].FindSlices(FindRequest(pc));
    seconds = NowSeconds() - start;
  }
  const size_t bytes = clients_[c].last_response_line().size();

  std::lock_guard<std::mutex> lock(results_mutex_);
  report_->Attempt();
  if (!reply.ok()) {
    report_->Fail(std::string("find_slices ") + pc.dataset + ": " +
                  reply.status().ToString());
    return;
  }
  phase->find_ms.push_back(seconds * 1e3);
  phase->reply_bytes.push_back(static_cast<double>(bytes));
  const ResultKey key{adult ? epoch_ : 0, version, config};
  if (reply->cache_hit) {
    ++phase->hits;
    phase->hit_ms.push_back(seconds * 1e3);
    // The config's only client made the filling miss earlier.
    const auto filled = misses_.find(key);
    if (filled == misses_.end()) {
      report_->Fail("cache hit with no miss that filled it");
    } else if (const std::string diff = DiffTopK(reply->result, filled->second);
               !diff.empty()) {
      report_->Fail("cache hit differs from the miss that filled it: " + diff);
    }
    return;
  }
  if (spans != nullptr) traced_misses_.push_back({op, reply->job_id, seconds});
  if (!adult) {
    if (const std::string diff =
            DiffTopK(reply->result, criteo_reference_[config]);
        !diff.empty()) {
      report_->Fail("criteo miss differs from the reference: " + diff);
    }
  }
  const auto [it, inserted] = misses_.emplace(key, reply->result);
  if (!inserted) {
    if (const std::string diff = DiffTopK(reply->result, it->second);
        !diff.empty()) {
      report_->Fail("two misses of one config differ: " + diff);
    }
  }
}

void ServeRun::Append(SpanRecorder* spans, Phase* phase) {
  serve::AppendRowsRequest request;
  request.dataset = "adult";
  const size_t begin = static_cast<size_t>(appends_in_epoch_) * kAppendRows;
  request.rows.assign(pool_.rows.begin() + begin,
                      pool_.rows.begin() + begin + kAppendRows);
  request.errors.assign(pool_.errors.begin() + begin,
                        pool_.errors.begin() + begin + kAppendRows);
  double seconds = 0.0;
  StatusOr<sliceline::obs::JsonValue> response = Status::Internal("not sent");
  {
    SpanRecorder::Scope span(spans, "append", "", next_op_++, 1);
    const double start = NowSeconds();
    response = clients_[0].AppendRows(request);
    seconds = NowSeconds() - start;
  }
  report_->Attempt();
  if (!response.ok()) {
    report_->Fail("append_rows: " + response.status().ToString());
    epoch_over_ = true;
    return;
  }
  ++adult_version_;
  ++appends_in_epoch_;
  phase->append_ms.push_back(seconds * 1e3);
  phase->invalidated.push_back(
      static_cast<double>(response->GetIntOr("cache_invalidated", 0)));
}

void ServeRun::BarrierStep::operator()() noexcept {
  if (spans != nullptr) run->SplitTracedMisses(spans, phase);
  if (run->appends_in_epoch_ == kAppendsPerEpoch || NowSeconds() >= deadline) {
    run->epoch_over_ = true;
    return;
  }
  run->Append(spans, phase);
}

void ServeRun::ClientLoop(int c, std::barrier<BarrierStep>* sync,
                          SpanRecorder* spans, Phase* phase) {
  uint64_t state = DeriveSeed(options_.seed, 100 + 10 * epoch_ + c);
  double total_weight = 0.0;
  for (const PoolConfig& pc : kPool) {
    if (pc.client == c) total_weight += pc.weight;
  }
  while (true) {
    for (int i = 0; i < kFindsPerAppend; ++i) {
      state = DeriveSeed(state, 1);
      double draw = static_cast<double>(state >> 11) * 0x1.0p-53 * total_weight;
      int config = -1;
      for (int k = 0; k < kPoolSize; ++k) {
        if (kPool[k].client != c) continue;
        config = k;
        if (draw < kPool[k].weight) break;
        draw -= kPool[k].weight;
      }
      Find(c, config, spans, phase);
    }
    sync->arrive_and_wait();
    if (epoch_over_) return;
  }
}

Status ServeRun::Restart() {
  // Clients first: the old server drains its connections on shutdown.
  clients_.clear();
  deployment_->daemon.reset();
  SLICELINE_ASSIGN_OR_RETURN(deployment_->daemon,
                             StartDaemon(*deployment_, &register_ms_));
  SLICELINE_RETURN_NOT_OK(Connect());
  adult_version_ = 0;
  appends_in_epoch_ = 0;
  ++epoch_;
  return Status::OK();
}

Status ServeRun::EndEpoch(Phase* phase) {
  serve::Client& control = *deployment_->daemon->control;
  StatusOr<sliceline::obs::JsonValue> watch = control.WatchStatus("adult");
  if (!watch.ok()) return watch.status();
  phase->watch_evaluations += watch->GetIntOr("evaluations", 0);
  phase->window_rebuilds += watch->GetIntOr("window_rebuilds", 0);

  // One find on adult must equal an in-process run over the base rows
  // plus every row appended in this epoch.
  report_->Attempt();
  StatusOr<serve::FindSlicesReply> served =
      control.FindSlices(FindRequest(kPool[0]));
  if (!served.ok()) {
    report_->Fail("final adult find: " + served.status().ToString());
    return Status::OK();
  }
  data::IntMatrix x0 = adult_base_->dataset.x0;
  std::vector<double> errors = adult_base_->dataset.errors;
  if (appends_in_epoch_ > 0) {
    const size_t rows = static_cast<size_t>(appends_in_epoch_) * kAppendRows;
    const std::vector<std::vector<std::string>> appended(
        pool_.rows.begin(), pool_.rows.begin() + rows);
    SLICELINE_ASSIGN_OR_RETURN(
        data::IntMatrix delta,
        data::EncodeRawRows(*adult_base_->encoders, appended));
    x0.AppendRows(delta);
    errors.insert(errors.end(), pool_.errors.begin(),
                  pool_.errors.begin() + rows);
  }
  StatusOr<core::SliceLineResult> local =
      core::RunSliceLine(x0, errors, EngineConfig(kPool[0]));
  if (!local.ok()) return local.status();
  if (const std::string diff = DiffTopK(served->result, *local);
      !diff.empty()) {
    report_->Fail("adult after " + std::to_string(appends_in_epoch_) +
                  " appends differs from an in-process run: " + diff);
  }
  return Status::OK();
}

Status ServeRun::RunPhase(double budget, SpanRecorder* spans, Phase* phase) {
  while (phase->seconds < budget) {
    if (daemon_used_) SLICELINE_RETURN_NOT_OK(Restart());
    daemon_used_ = true;
    epoch_over_ = false;
    const double start = NowSeconds();
    std::barrier<BarrierStep> sync(
        kClients,
        BarrierStep{this, start + (budget - phase->seconds), spans, phase});
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(
          [this, c, &sync, spans, phase] {
            ClientLoop(c, &sync, spans, phase);
          });
    }
    for (std::thread& thread : threads) thread.join();
    phase->seconds += NowSeconds() - start;
    SLICELINE_RETURN_NOT_OK(EndEpoch(phase));
  }
  return Status::OK();
}

}  // namespace

int RunServe(const Options& options, Report* report) {
  // The server logs each registration and watch at info level.
  sliceline::SetLogLevel(sliceline::LogLevel::kWarning);
  // Each job runs its engine on its worker thread alone, so the busy
  // threads (two workers, two clients) stay within four cores. With the
  // default pool of one thread per core, two misses at once oversubscribe
  // the cores and every figure follows the scheduler and the host's load.
  setenv("SLICELINE_NUM_THREADS", "1", 1);
  if (sliceline::GlobalThreadPool().num_threads() != 1) {
    report->Fail("the engine thread pool was sized before the workload ran");
    return report->Finish();
  }
  Info("workload", "serve-mixed (closed loop, 2 clients, server with 2 "
                   "workers on a Unix socket, 1 engine thread per job)");
  Info("seed", std::to_string(options.seed));

  // -- set-up, kSetupRepeats times; the last deployment is measured. --
  Samples setup_seconds;
  Samples generate_ms;
  Samples register_ms;
  std::unique_ptr<Deployment> deployment;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    deployment.reset();
    const double start = NowSeconds();
    double gen_ms = 0.0;
    StatusOr<std::unique_ptr<Deployment>> set_up =
        SetUp(options, &gen_ms, &register_ms);
    if (!set_up.ok()) {
      report->Fail("set-up: " + set_up.status().ToString());
      return report->Finish();
    }
    setup_seconds.push_back(NowSeconds() - start);
    generate_ms.push_back(gen_ms);
    deployment = std::move(set_up).value();
  }

  std::shared_ptr<const serve::RegisteredDataset> adult =
      deployment->daemon->server->registry().Find("adult");
  for (const char* name : {"adult", "criteo"}) {
    std::shared_ptr<const serve::RegisteredDataset> ds =
        deployment->daemon->server->registry().Find(name);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%s seed=%llu rows=%lld features=%lld one_hot=%lld "
                  "(as registered)",
                  name, static_cast<unsigned long long>(kBaseSeed),
                  static_cast<long long>(ds->dataset.n()),
                  static_cast<long long>(ds->dataset.m()),
                  static_cast<long long>(ds->dataset.OneHotWidth()));
    Info(std::string("input[") + name + "]", line);
  }
  Info("llc", std::to_string(LlcBytes() / (1 << 20)) + " MiB");
  Info("appends", std::to_string(kAppendRows) + " rows after every " +
                      std::to_string(kFindsPerAppend) +
                      " finds of each client; adult grows by at most " +
                      std::to_string(kAppendsPerEpoch) +
                      "% per epoch; then the daemon is restarted on the base "
                      "tables");

  StatusOr<AppendPool> pool =
      MakeAppendPool(adult->dataset, DeriveSeed(options.seed, 2));
  if (!pool.ok()) {
    report->Fail("append pool: " + pool.status().ToString());
    return report->Finish();
  }
  ServeRun run(options, report, deployment.get(), std::move(pool).value());
  run.AddRegisterMs(register_ms);
  if (Status prepared = run.Prepare(); !prepared.ok()) {
    report->Fail("prepare: " + prepared.ToString());
    return report->Finish();
  }

  const double cpu_start = CpuSeconds();
  Phase plain;
  if (Status status = run.RunPhase(options.seconds, nullptr, &plain);
      !status.ok()) {
    report->Fail("run: " + status.ToString());
    return report->Finish();
  }
  const double cpu_ms_per_find = (CpuSeconds() - cpu_start) * 1e3 /
                                 static_cast<double>(plain.find_ms.size());
  const double hit_ratio =
      static_cast<double>(plain.hits) /
      static_cast<double>(plain.find_ms.size());
  Info("finds", std::to_string(plain.find_ms.size()) + " (" +
                    std::to_string(plain.hits) + " hits), " +
                    std::to_string(plain.append_ms.size()) + " appends in " +
                    std::to_string(plain.seconds) + " s");
  Info("find_ms.quartiles",
       std::to_string(Percentile(plain.find_ms, 0.25).value_or(0)) + " / " +
           std::to_string(Percentile(plain.find_ms, 0.5).value_or(0)) +
           " / " + std::to_string(Percentile(plain.find_ms, 0.75).value_or(0)));
  Info("cache_hit_ratio", std::to_string(hit_ratio));
  // Hits take well under a millisecond and misses tens of milliseconds, so
  // the median lands on hits while hits are the majority, and the 90th
  // percentile on misses while misses exceed a tenth.
  Info("percentiles",
       std::string("p50 on ") + (hit_ratio > 0.5 ? "cache hits" : "misses") +
           ", p90 on " + (hit_ratio < 0.9 ? "misses" : "cache hits"));

  if (!options.trace) {
    report->Set("setup_s", MedianOr0(setup_seconds));
    report->Set("find_ms.p50", MedianOr0(plain.find_ms));
    report->Set("finds_per_s",
                static_cast<double>(plain.find_ms.size()) / plain.seconds);
    // Read before the LA cross-check, whose dense matrices are no part of
    // the workload.
    report->Set("peak_rss_mb", PeakRssMb());
    run.CrossCheckLa();
    return report->Finish();
  }

  // -- traced phase: spans around each client request, get_status after
  // each miss for the server-side queue/run split. --
  SpanRecorder spans;
  Phase traced;
  if (Status status = run.RunPhase(options.seconds / 2, &spans, &traced);
      !status.ok()) {
    report->Fail("traced run: " + status.ToString());
    return report->Finish();
  }
  const auto guarded = [&](const std::string& name, const Samples& samples,
                           double p) {
    const std::optional<double> value = GuardedPercentile(samples, p);
    if (value) {
      report->Set(name, *value);
    } else {
      report->Missing(name, std::to_string(samples.size()) +
                                " samples leave fewer than " +
                                std::to_string(kMinTailSamples) +
                                " beyond the percentile");
    }
  };
  run.CrossCheckLa();
  report->Set("serve.register_ms", run.register_ms());
  report->Set("serve.find.queued_ms", MedianOr0(traced.queued_ms));
  report->Set("serve.find.run_ms", MedianOr0(traced.run_ms));
  report->Set("serve.find.overhead_ms", MedianOr0(traced.overhead_ms));
  report->Set("serve.find.hit_ms", MedianOr0(traced.hit_ms));
  guarded("serve.find_ms.p90", plain.find_ms, 0.9);
  guarded("serve.append_ms.p50", plain.append_ms, 0.5);
  guarded("serve.append_ms.p90", plain.append_ms, 0.9);
  report->Set("serve.cache.hit_ratio", hit_ratio);
  report->Set("serve.cache.invalidated", MedianOr0(plain.invalidated));
  report->Set("serve.reply_bytes", MedianOr0(plain.reply_bytes));
  report->Set("stream.watch.evaluations",
              static_cast<double>(plain.watch_evaluations));
  report->Set("stream.watch.window_rebuilds",
              static_cast<double>(plain.window_rebuilds));
  report->Set("data.generate_ms", MedianOr0(generate_ms));
  report->Set("process.cpu_ms_per_find", cpu_ms_per_find);
  // Traced finds carry only the benchmark's spans; the get_status calls
  // run at the barrier, outside the measured finds.
  report->Set("obs.trace_overhead",
              MedianOr0(traced.find_ms) / MedianOr0(plain.find_ms) - 1.0);
  report->Set("failed_frac", static_cast<double>(report->failed()) /
                                 static_cast<double>(report->attempted()));
  report->NotExercised({"core.", "linalg.", "data.offsets"});
  const std::string trace_path = options.work_dir + "/trace_" +
                                 options.workload + "_" +
                                 std::to_string(options.seed) + ".json";
  if (!spans.WriteChromeTrace(trace_path)) {
    report->Fail("cannot write " + trace_path);
  }
  Info("trace_file", trace_path);
  return report->Finish();
}

}  // namespace perfbench
