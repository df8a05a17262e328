#include "dist/coordinator.h"

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/sliceline.h"
#include "dist/worker.h"
#include "linalg/kernels_simd.h"

namespace sliceline::dist {
namespace {

struct RandomInput {
  data::IntMatrix x0;
  std::vector<double> errors;
};

RandomInput MakeRandom(uint64_t seed, int64_t n, int m, int max_dom) {
  Rng rng(seed);
  RandomInput input;
  input.x0 = data::IntMatrix(n, m);
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      input.x0.At(i, j) = static_cast<int32_t>(rng.NextUint64(max_dom)) + 1;
    }
  }
  input.errors.resize(n);
  for (auto& e : input.errors) e = rng.NextBool(0.3) ? rng.NextDouble() : 0.0;
  return input;
}

/// An in-process worker fleet on kernel-assigned loopback ports.
class WorkerFleet {
 public:
  explicit WorkerFleet(int count, int64_t drop_every = 0) {
    for (int i = 0; i < count; ++i) {
      WorkerOptions options;
      options.tcp_port = 0;
      options.drop_every = drop_every;
      workers_.push_back(std::make_unique<Worker>(options));
      EXPECT_TRUE(workers_.back()->Start().ok());
    }
  }

  std::vector<WorkerEndpoint> endpoints() const {
    std::vector<WorkerEndpoint> out;
    for (const auto& worker : workers_) {
      out.push_back(WorkerEndpoint{"", worker->tcp_port()});
    }
    return out;
  }

  /// Stops worker `i` (its port stays closed afterwards).
  void Kill(size_t i) {
    workers_[i]->RequestShutdown();
    workers_[i]->Wait();
  }

  /// Restarts worker `i` on its previous port with a fresh session.
  void Restart(size_t i) {
    const int port = workers_[i]->tcp_port();
    Kill(i);
    WorkerOptions options;
    options.tcp_port = port;
    workers_[i] = std::make_unique<Worker>(options);
    ASSERT_TRUE(workers_[i]->Start().ok());
  }

  Worker& worker(size_t i) { return *workers_[i]; }

 private:
  std::vector<std::unique_ptr<Worker>> workers_;
};

DistOptions FastOptions(const WorkerFleet& fleet) {
  DistOptions options;
  options.endpoints = fleet.endpoints();
  options.connect_timeout_ms = 500;
  options.request_timeout_ms = 5000;
  options.straggler_after_ms = 60000;  // no spurious speculation in tests
  options.max_retries = 3;
  options.backoff_base_seconds = 0.005;
  return options;
}

TEST(RemoteDistTest, BitIdenticalToInProcessFleet) {
  RandomInput input = MakeRandom(11, 400, 5, 4);
  core::SliceLineConfig config;
  config.k = 6;
  config.min_support = 10;

  WorkerFleet fleet(3);
  DistCostStats cost;
  DistFaultStats faults;
  auto remote = RunSliceLineDistributed(input.x0, input.errors, config,
                                        FastOptions(fleet), &cost, &faults);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  DistOptions in_process;
  in_process.local_workers = 3;
  auto simulated = RunSliceLineDistributed(input.x0, input.errors, config,
                                           in_process);
  ASSERT_TRUE(simulated.ok());

  // Exact partial sums, rounded once after the merge: every floating-point
  // value must match bit for bit.
  ASSERT_EQ(remote->top_k.size(), simulated->top_k.size());
  for (size_t i = 0; i < remote->top_k.size(); ++i) {
    EXPECT_EQ(remote->top_k[i].stats.score, simulated->top_k[i].stats.score);
    EXPECT_EQ(remote->top_k[i].stats.size, simulated->top_k[i].stats.size);
    EXPECT_EQ(remote->top_k[i].predicates, simulated->top_k[i].predicates);
  }
  ASSERT_EQ(remote->levels.size(), simulated->levels.size());
  for (size_t i = 0; i < remote->levels.size(); ++i) {
    EXPECT_EQ(remote->levels[i].candidates, simulated->levels[i].candidates);
  }
  EXPECT_EQ(faults.workers_lost, 0);
  EXPECT_FALSE(faults.fallback_local);
  EXPECT_FALSE(remote->outcome.dist_fallback_local);
  EXPECT_GT(cost.broadcast_bytes, 0);
  EXPECT_GT(cost.gather_bytes, 0);
}

/// Asserts two runs found the same slices with bit-identical statistics and
/// enumerated the same levels.
void ExpectSameResult(const core::SliceLineResult& got,
                      const core::SliceLineResult& want,
                      const std::string& what) {
  ASSERT_EQ(got.top_k.size(), want.top_k.size()) << what;
  for (size_t i = 0; i < got.top_k.size(); ++i) {
    const core::SliceStats& a = got.top_k[i].stats;
    const core::SliceStats& b = want.top_k[i].stats;
    EXPECT_EQ(got.top_k[i].predicates, want.top_k[i].predicates) << what;
    EXPECT_EQ(a.size, b.size) << what;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.score), std::bit_cast<uint64_t>(b.score))
        << what;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.error_sum),
              std::bit_cast<uint64_t>(b.error_sum))
        << what;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.max_error),
              std::bit_cast<uint64_t>(b.max_error))
        << what;
  }
  ASSERT_EQ(got.levels.size(), want.levels.size()) << what;
  for (size_t i = 0; i < got.levels.size(); ++i) {
    EXPECT_EQ(got.levels[i].candidates, want.levels[i].candidates) << what;
    EXPECT_EQ(got.levels[i].valid, want.levels[i].valid) << what;
    EXPECT_EQ(got.levels[i].pruned, want.levels[i].pruned) << what;
  }
}

TEST(RemoteDistTest, FleetsMatchSingleNodeOnFloatErrorsAtEveryIsaAndPoolSize) {
  // Arbitrary doubles: float sums would depend on how shards and tiles cut
  // the rows. Exact sums make every run equal a single-node kBitset run.
  RandomInput input = MakeRandom(31, 700, 5, 4);
  core::SliceLineConfig config;
  config.k = 6;
  config.min_support = 10;
  auto want = core::RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(want.ok());
  WorkerFleet fleet(3);
  for (linalg::SimdIsa isa : linalg::AvailableIsas()) {
    linalg::ForceIsa(isa);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      ResizeGlobalThreadPoolForTesting(threads);
      const std::string what = std::string(linalg::IsaName(isa)) +
                               " threads=" + std::to_string(threads);
      core::SliceLineConfig scan = config;
      scan.eval_strategy = core::SliceLineConfig::EvalStrategy::kScanBlock;
      auto single = core::RunSliceLine(input.x0, input.errors, scan);
      ASSERT_TRUE(single.ok()) << what;
      ExpectSameResult(*single, *want, what + " kScanBlock");
      DistOptions in_process;
      in_process.local_workers = 3;
      auto simulated = RunSliceLineDistributed(input.x0, input.errors, config,
                                               in_process);
      ASSERT_TRUE(simulated.ok()) << what;
      ExpectSameResult(*simulated, *want, what + " in-process fleet");
      auto remote = RunSliceLineDistributed(input.x0, input.errors, config,
                                            FastOptions(fleet));
      ASSERT_TRUE(remote.ok()) << what;
      ExpectSameResult(*remote, *want, what + " socket fleet");
    }
  }
  linalg::ClearForcedIsa();
  ResizeGlobalThreadPoolForTesting(0);
}

TEST(RemoteDistTest, MatchesLocalExecution) {
  RandomInput input = MakeRandom(29, 500, 4, 3);
  core::SliceLineConfig config;
  config.k = 4;
  config.min_support = 12;
  auto local = core::RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(local.ok());

  WorkerFleet fleet(4);
  auto remote = RunSliceLineDistributed(input.x0, input.errors, config,
                                        FastOptions(fleet));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_EQ(remote->top_k.size(), local->top_k.size());
  for (size_t i = 0; i < remote->top_k.size(); ++i) {
    EXPECT_EQ(remote->top_k[i].stats.score, local->top_k[i].stats.score);
    EXPECT_EQ(remote->top_k[i].stats.error_sum,
              local->top_k[i].stats.error_sum);
    EXPECT_EQ(remote->top_k[i].stats.size, local->top_k[i].stats.size);
    EXPECT_EQ(remote->top_k[i].predicates, local->top_k[i].predicates);
  }
}

TEST(RemoteDistTest, WorkerDeathMidRunReshardsOntoSurvivors) {
  RandomInput input = MakeRandom(7, 400, 4, 3);
  core::SliceLineConfig config;
  config.k = 4;
  config.min_support = 10;
  auto local = core::RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(local.ok());

  WorkerFleet fleet(3);
  DistOptions options = FastOptions(fleet);
  options.request_timeout_ms = 1000;
  auto eval = Coordinator::Create(input.x0, input.errors, options);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  (*eval)->set_round_hook([&](int64_t round) {
    if (round == 1) fleet.Kill(1);
  });
  auto result = core::RunSliceLineWithBackend(**eval, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ((*eval)->faults().workers_lost, 1);
  EXPECT_GT((*eval)->faults().reshards, 0);
  EXPECT_GT((*eval)->faults().transient_failures, 0);
  EXPECT_FALSE((*eval)->faults().fallback_local);
  EXPECT_EQ((*eval)->alive_workers(), 2);

  // Shard boundaries never changed, so recovery is invisible in the result.
  ASSERT_EQ(result->top_k.size(), local->top_k.size());
  for (size_t i = 0; i < result->top_k.size(); ++i) {
    EXPECT_EQ(result->top_k[i].stats.score, local->top_k[i].stats.score);
    EXPECT_EQ(result->top_k[i].stats.error_sum,
              local->top_k[i].stats.error_sum);
    EXPECT_EQ(result->top_k[i].predicates, local->top_k[i].predicates);
  }
}

TEST(RemoteDistTest, TooManyDeathsDegradeToLocalFallback) {
  RandomInput input = MakeRandom(17, 300, 4, 3);
  core::SliceLineConfig config;
  config.k = 4;
  config.min_support = 8;
  auto local = core::RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(local.ok());

  WorkerFleet fleet(4);
  DistOptions options = FastOptions(fleet);
  options.request_timeout_ms = 1000;
  options.max_lost_fraction = 0.25;  // a second loss crosses the threshold
  auto eval = Coordinator::Create(input.x0, input.errors, options);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  (*eval)->set_round_hook([&](int64_t round) {
    if (round == 1) {
      fleet.Kill(0);
      fleet.Kill(2);
    }
  });
  auto result = core::RunSliceLineWithBackend(**eval, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_TRUE((*eval)->faults().fallback_local);
  EXPECT_GE((*eval)->faults().workers_lost, 1);
  // The fallback evaluates the full matrix locally: results stay exact.
  ASSERT_EQ(result->top_k.size(), local->top_k.size());
  for (size_t i = 0; i < result->top_k.size(); ++i) {
    EXPECT_EQ(result->top_k[i].stats.score, local->top_k[i].stats.score);
    EXPECT_EQ(result->top_k[i].stats.error_sum,
              local->top_k[i].stats.error_sum);
    EXPECT_EQ(result->top_k[i].predicates, local->top_k[i].predicates);
  }
}

TEST(RemoteDistTest, DegradationIsRecordedInRunOutcome) {
  RandomInput input = MakeRandom(17, 200, 3, 3);
  core::SliceLineConfig config;
  config.k = 3;
  config.min_support = 8;
  // Endpoints that point at nothing: every worker is unreachable, so setup
  // degrades immediately and the run completes on the local fallback.
  DistOptions options;
  options.endpoints = {WorkerEndpoint{"", 1}, WorkerEndpoint{"", 1}};
  options.connect_timeout_ms = 100;
  options.request_timeout_ms = 200;
  options.max_retries = 0;
  options.backoff_base_seconds = 0.001;
  DistFaultStats faults;
  auto result = RunSliceLineDistributed(input.x0, input.errors, config,
                                        options, nullptr, &faults);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(faults.fallback_local);
  EXPECT_TRUE(result->outcome.dist_fallback_local);
  EXPECT_TRUE(result->outcome.WellFormed());
  EXPECT_FALSE(result->outcome.partial);

  auto local = core::RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(local.ok());
  ASSERT_EQ(result->top_k.size(), local->top_k.size());
  for (size_t i = 0; i < result->top_k.size(); ++i) {
    EXPECT_EQ(result->top_k[i].predicates, local->top_k[i].predicates);
  }
}

TEST(RemoteDistTest, TransientDropsAreRetriedTransparently) {
  RandomInput input = MakeRandom(41, 300, 4, 3);
  core::SliceLineConfig config;
  config.k = 4;
  config.min_support = 10;
  auto local = core::RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(local.ok());

  // Every 7th request is answered by an abrupt disconnect. Small eval
  // blocks force enough requests per worker that several drops fire.
  WorkerFleet fleet(2, /*drop_every=*/7);
  DistOptions options = FastOptions(fleet);
  options.request_timeout_ms = 1000;
  options.max_block_slices = 4;
  DistFaultStats faults;
  auto remote = RunSliceLineDistributed(input.x0, input.errors, config,
                                        options, nullptr, &faults);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_GT(faults.transient_failures, 0);
  EXPECT_GT(faults.retries, 0);
  EXPECT_GT(faults.backoff_seconds, 0.0);
  EXPECT_FALSE(faults.fallback_local);
  ASSERT_EQ(remote->top_k.size(), local->top_k.size());
  for (size_t i = 0; i < remote->top_k.size(); ++i) {
    EXPECT_EQ(remote->top_k[i].stats.score, local->top_k[i].stats.score);
    EXPECT_EQ(remote->top_k[i].stats.error_sum,
              local->top_k[i].stats.error_sum);
    EXPECT_EQ(remote->top_k[i].predicates, local->top_k[i].predicates);
  }
}

TEST(RemoteDistTest, WorkerRestartIsReenlistedAndReshipped) {
  RandomInput input = MakeRandom(53, 300, 4, 3);
  core::SliceLineConfig config;
  config.k = 4;
  config.min_support = 10;
  auto local = core::RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(local.ok());

  WorkerFleet fleet(2);
  DistOptions options = FastOptions(fleet);
  options.request_timeout_ms = 1000;
  auto eval = Coordinator::Create(input.x0, input.errors, options);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  const std::string session_before = fleet.worker(1).session();
  (*eval)->set_round_hook([&](int64_t round) {
    if (round == 1) fleet.Restart(1);
  });
  auto result = core::RunSliceLineWithBackend(**eval, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The restarted worker came back with a fresh session; the coordinator
  // re-enlisted it and re-shipped its shard instead of losing it.
  EXPECT_NE(fleet.worker(1).session(), session_before);
  EXPECT_EQ((*eval)->faults().workers_lost, 0);
  EXPECT_FALSE((*eval)->faults().fallback_local);
  EXPECT_EQ((*eval)->alive_workers(), 2);
  ASSERT_EQ(result->top_k.size(), local->top_k.size());
  for (size_t i = 0; i < result->top_k.size(); ++i) {
    EXPECT_EQ(result->top_k[i].stats.score, local->top_k[i].stats.score);
    EXPECT_EQ(result->top_k[i].stats.error_sum,
              local->top_k[i].stats.error_sum);
    EXPECT_EQ(result->top_k[i].predicates, local->top_k[i].predicates);
  }
}

TEST(RemoteDistTest, SeededFaultsOnSocketFleetKeepTopK) {
  // The fault decorator wraps socket links too: the same seeded schedule
  // of transient failures and corrupted payloads, recovered by the same
  // loop, leaves the result bit-identical to a clean in-process run.
  RandomInput input = MakeRandom(61, 400, 5, 4);
  core::SliceLineConfig config;
  config.k = 5;
  config.min_support = 10;
  DistOptions in_process;
  in_process.local_workers = 3;
  auto clean = RunSliceLineDistributed(input.x0, input.errors, config,
                                       in_process);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  WorkerFleet fleet(3);
  DistOptions options = FastOptions(fleet);
  options.fault.seed = 5;
  options.fault.transient_rate = 0.3;
  options.fault.corruption_rate = 0.3;
  DistFaultStats faults;
  auto faulty = RunSliceLineDistributed(input.x0, input.errors, config,
                                        options, nullptr, &faults);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  EXPECT_GT(faults.transient_failures, 0);
  EXPECT_GT(faults.corrupted_partials, 0);
  ASSERT_FALSE(faults.fallback_local);
  ASSERT_EQ(faulty->top_k.size(), clean->top_k.size());
  for (size_t i = 0; i < faulty->top_k.size(); ++i) {
    EXPECT_EQ(faulty->top_k[i].stats.score, clean->top_k[i].stats.score);
    EXPECT_EQ(faulty->top_k[i].predicates, clean->top_k[i].predicates);
  }
}

TEST(RemoteDistTest, ValidatesInputs) {
  RandomInput input = MakeRandom(13, 50, 2, 3);
  DistOptions options;  // no endpoints
  EXPECT_FALSE(
      Coordinator::Create(input.x0, input.errors, options).ok());
  options.endpoints = {WorkerEndpoint{"", 1}};
  std::vector<double> wrong(10, 0.1);
  EXPECT_FALSE(Coordinator::Create(input.x0, wrong, options).ok());
  options.max_lost_fraction = 2.0;
  EXPECT_FALSE(
      Coordinator::Create(input.x0, input.errors, options).ok());
}

}  // namespace
}  // namespace sliceline::dist
