// Distributed-style model debugging: run the identical SliceLine search
// with the row-sharded, broadcast-based executor (the shape of the paper's
// Spark deployment) on an in-process worker fleet and inspect the
// communication profile. Results are
// bit-identical to local execution; only the execution strategy differs.
#include <cstdio>

#include "core/report.h"
#include "core/sliceline.h"
#include "data/generators/generators.h"
#include "dist/coordinator.h"

int main() {
  using namespace sliceline;

  data::DatasetOptions options;
  options.rows = 30000;
  data::EncodedDataset ds = data::MakeUsCensus(options);
  std::printf("dataset: %s, n=%lld, m=%lld\n\n", ds.name.c_str(),
              static_cast<long long>(ds.n()),
              static_cast<long long>(ds.m()));

  core::SliceLineConfig config;
  config.k = 4;
  config.alpha = 0.95;
  config.max_level = 3;

  auto local = core::RunSliceLine(ds, config);
  if (!local.ok()) {
    std::fprintf(stderr, "local run failed: %s\n",
                 local.status().ToString().c_str());
    return 1;
  }

  dist::DistOptions dopts;
  dopts.local_workers = 8;
  dist::DistCostStats cost;
  auto distributed =
      dist::RunSliceLineDistributed(ds.x0, ds.errors, config, dopts, &cost);
  if (!distributed.ok()) {
    std::fprintf(stderr, "distributed run failed: %s\n",
                 distributed.status().ToString().c_str());
    return 1;
  }

  std::printf("local:       %s\n",
              core::SummarizeResult(*local).c_str());
  std::printf("distributed: %s\n\n",
              core::SummarizeResult(*distributed).c_str());
  std::printf("distributed profile (%d in-process workers):\n",
              dopts.local_workers);
  std::printf("  evaluation rounds : %lld (one slice-set broadcast each)\n",
              static_cast<long long>(cost.rounds));
  std::printf("  broadcast bytes   : %lld\n",
              static_cast<long long>(cost.broadcast_bytes));
  std::printf("  gather bytes      : %lld\n",
              static_cast<long long>(cost.gather_bytes));
  std::printf("  worker busy time  : %.3fs (sum over workers)\n",
              cost.worker_busy_seconds);
  std::printf("  critical path     : %.3fs (slowest worker per round)\n",
              cost.critical_path_seconds);
  std::printf("  comm estimate     : %.3fs (10GbE model)\n\n",
              cost.EstimatedCommSeconds());

  std::printf("top slices (identical under both executors):\n%s",
              core::FormatResult(*distributed, ds.feature_names).c_str());
  return 0;
}
