// Dataset registry (load-once semantics, content hashing, idempotent
// re-registration) and LRU result cache (eviction order, hit/miss/eviction
// counters, concurrent access).
#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/dataset_registry.h"
#include "serve/result_cache.h"
#include "serve_test_util.h"

namespace sliceline::serve {
namespace {

RegisterDatasetRequest MakeRequest(const std::string& name,
                                   const std::string& csv_path) {
  RegisterDatasetRequest request;
  request.name = name;
  request.csv_path = csv_path;
  request.label = "target";
  request.task = "reg";
  return request;
}

class ServeRegistryTest : public ::testing::Test {
 protected:
  std::string WriteCsv(const std::string& file, const std::string& text) {
    // Pid-qualified so overlapping test processes never share a fixture.
    const std::string path =
        ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + file;
    WriteFileOrDie(path, text);
    return path;
  }
};

TEST_F(ServeRegistryTest, RegisterLoadsTrainsAndHashes) {
  DatasetRegistry registry;
  const std::string path =
      WriteCsv("registry_basic.csv", MakeCsvText(300, 4, 3, 17));
  auto outcome = registry.Register(MakeRequest("basic", path));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome->already_registered);
  const std::shared_ptr<const RegisteredDataset>& dataset = outcome->dataset;
  EXPECT_EQ(dataset->name, "basic");
  EXPECT_EQ(dataset->dataset.n(), 300);
  EXPECT_EQ(dataset->dataset.m(), 4);
  EXPECT_NE(dataset->data_hash, 0u);
  EXPECT_GE(dataset->mean_error, 0.0);
  EXPECT_EQ(dataset->dataset.errors.size(), 300u);
  // The stored hash is the recomputable content fingerprint.
  EXPECT_EQ(dataset->data_hash, HashEncodedDataset(dataset->dataset));

  EXPECT_EQ(registry.Find("basic"), dataset);
  EXPECT_EQ(registry.Find("nope"), nullptr);
  EXPECT_EQ(registry.size(), 1);
  ASSERT_EQ(registry.List().size(), 1u);
  EXPECT_EQ(registry.List()[0]->name, "basic");
}

TEST_F(ServeRegistryTest, ReRegisteringIdenticalContentIsIdempotent) {
  DatasetRegistry registry;
  const std::string path =
      WriteCsv("registry_idem.csv", MakeCsvText(200, 3, 3, 23));
  auto first = registry.Register(MakeRequest("idem", path));
  ASSERT_TRUE(first.ok());
  auto second = registry.Register(MakeRequest("idem", path));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->already_registered);
  // The original instance is kept so concurrent requests share one dataset.
  EXPECT_EQ(second->dataset.get(), first->dataset.get());
  EXPECT_EQ(registry.size(), 1);
}

TEST_F(ServeRegistryTest, ConflictingContentUnderSameNameIsRejected) {
  DatasetRegistry registry;
  const std::string path_a =
      WriteCsv("registry_conflict_a.csv", MakeCsvText(200, 3, 3, 29));
  const std::string path_b =
      WriteCsv("registry_conflict_b.csv", MakeCsvText(200, 3, 3, 31));
  ASSERT_TRUE(registry.Register(MakeRequest("conflict", path_a)).ok());
  auto outcome = registry.Register(MakeRequest("conflict", path_b));
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(outcome.status().message().find("different content"),
            std::string::npos);
  EXPECT_EQ(registry.size(), 1);
}

TEST_F(ServeRegistryTest, RegisterValidatesRequest) {
  DatasetRegistry registry;
  const std::string path =
      WriteCsv("registry_valid.csv", MakeCsvText(100, 3, 3, 37));

  auto no_name = registry.Register(MakeRequest("", path));
  ASSERT_FALSE(no_name.ok());
  EXPECT_EQ(no_name.status().code(), StatusCode::kInvalidArgument);

  RegisterDatasetRequest bad_task = MakeRequest("t", path);
  bad_task.task = "cluster";
  ASSERT_FALSE(registry.Register(bad_task).ok());

  RegisterDatasetRequest bad_bins = MakeRequest("b", path);
  bad_bins.bins = 1;
  ASSERT_FALSE(registry.Register(bad_bins).ok());

  auto missing_file =
      registry.Register(MakeRequest("m", ::testing::TempDir() + "/absent.csv"));
  ASSERT_FALSE(missing_file.ok());
  EXPECT_EQ(registry.size(), 0);
}

TEST_F(ServeRegistryTest, HashDistinguishesContentAndIsErrorSensitive) {
  auto a = BuildRegisteredDataset("a", MakeCsvText(150, 3, 3, 41));
  auto b = BuildRegisteredDataset("b", MakeCsvText(150, 3, 3, 43));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value()->data_hash, b.value()->data_hash);

  // Same codes but one perturbed error -> different fingerprint: results
  // depend on the error vector, so the cache key must too.
  auto c = BuildRegisteredDataset("c", MakeCsvText(150, 3, 3, 41));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a.value()->data_hash, c.value()->data_hash);
  data::EncodedDataset perturbed = c.value()->dataset;
  perturbed.errors[0] += 1.0;
  EXPECT_NE(HashEncodedDataset(perturbed), a.value()->data_hash);
}

TEST_F(ServeRegistryTest, AppendHashChainRecordsHowRowsWereSplit) {
  // h_k = Chain(h_{k-1}, delta_k): deterministic, and the same rows
  // appended as one delta or as two give different chains.
  data::IntMatrix both(2, 3);
  data::IntMatrix first(1, 3);
  data::IntMatrix second(1, 3);
  for (int j = 0; j < 3; ++j) {
    both.row(0)[j] = first.row(0)[j] = 1;
    both.row(1)[j] = second.row(0)[j] = 2;
  }
  const uint64_t base = 12345;
  const uint64_t whole = ChainFingerprint(base, both, {0.5, 1.5});
  EXPECT_EQ(whole, ChainFingerprint(base, both, {0.5, 1.5}));
  EXPECT_NE(whole, base);
  EXPECT_NE(whole, ChainFingerprint(ChainFingerprint(base, first, {0.5}),
                                    second, {1.5}));
  EXPECT_NE(whole, ChainFingerprint(base, both, {0.5, 2.5}));
}

std::shared_ptr<const CachedResult> MakeEntry(int64_t marker) {
  auto entry = std::make_shared<CachedResult>();
  entry->result.total_evaluated = marker;
  return entry;
}

TEST(ServeCacheTest, MissThenHitCountsBoth) {
  ResultCache cache(4);
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  EXPECT_EQ(cache.misses(), 1);
  cache.Insert(1, 1, MakeEntry(7));
  auto hit = cache.Lookup(1, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->result.total_evaluated, 7);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  // Both key halves participate.
  EXPECT_EQ(cache.Lookup(1, 2), nullptr);
  EXPECT_EQ(cache.Lookup(2, 1), nullptr);
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServeCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.Insert(1, 0, MakeEntry(1));
  cache.Insert(2, 0, MakeEntry(2));
  // Touch 1 so 2 becomes the LRU entry.
  ASSERT_NE(cache.Lookup(1, 0), nullptr);
  cache.Insert(3, 0, MakeEntry(3));
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(2, 0), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_NE(cache.Lookup(3, 0), nullptr);
}

TEST(ServeCacheTest, InsertRefreshesExistingEntry) {
  ResultCache cache(2);
  cache.Insert(1, 1, MakeEntry(1));
  cache.Insert(1, 1, MakeEntry(2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0);
  auto entry = cache.Lookup(1, 1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->result.total_evaluated, 2);
}

TEST(ServeCacheTest, ZeroCapacityDisablesCaching) {
  ResultCache cache(0);
  cache.Insert(1, 1, MakeEntry(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  EXPECT_EQ(cache.misses(), 1);
}

// TSan target: lookups, inserts, and evictions from many threads on a tiny
// key space must stay data-race-free and keep the counters coherent.
TEST(ServeCacheTest, ConcurrentMixedTrafficKeepsCountersCoherent) {
  ResultCache cache(4);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>((t + i) % 8);
        if (i % 3 == 0) {
          cache.Insert(key, key, MakeEntry(i));
        } else {
          auto entry = cache.Lookup(key, key);
          if (entry != nullptr) {
            // Entries are immutable shared state; reading must be safe.
            EXPECT_GE(entry->result.total_evaluated, 0);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const int64_t lookups = kThreads * (kOpsPerThread - kOpsPerThread / 3 - 1);
  EXPECT_EQ(cache.hits() + cache.misses(), lookups);
  EXPECT_LE(cache.size(), 4u);
}

}  // namespace
}  // namespace sliceline::serve
