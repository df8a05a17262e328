// Checkpoint format round-trips, corruption rejection, the resume check
// that turns files which do not fit the run into fresh runs, and the
// end-to-end guarantee: a run interrupted mid-enumeration and resumed from
// its checkpoint produces the bit-identical final top-K of an uninterrupted
// run.
#include "core/checkpoint.h"

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "core/sliceline.h"
#include "core/sliceline_la.h"
#include "testing/checks.h"

namespace sliceline::core {
namespace {

using ::sliceline::testing::CompareIdentical;

std::string MakeTempDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "ckpt_" + tag + "_" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

struct Input {
  data::IntMatrix x0;
  std::vector<double> errors;
};

Input MakeInput(uint64_t seed, int64_t n = 500, int m = 6, int max_dom = 3) {
  Rng rng(seed);
  Input input;
  input.x0 = data::IntMatrix(n, m);
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      input.x0.At(i, j) = static_cast<int32_t>(rng.NextUint64(max_dom)) + 1;
    }
  }
  input.errors.resize(n);
  for (auto& e : input.errors) {
    e = rng.NextBool(0.4) ? rng.NextDouble() : 0.0;
  }
  return input;
}

CheckpointState MakeState() {
  CheckpointState state;
  state.engine = "native";
  state.config_hash = 0x1234abcdULL;
  state.data_hash = 0xdeadbeef12345678ULL;
  state.level = 3;
  state.effective_sigma = 64;
  state.degradation_steps = 2;
  state.candidates_capped = 120;
  state.total_evaluated = 4242;
  LevelStats l1;
  l1.level = 1;
  l1.candidates = 20;
  l1.valid = 11;
  l1.pruned = 9;
  l1.seconds = 0.125;
  state.levels = {l1};
  Slice slice;
  slice.predicates = {{0, 2}, {3, 1}};
  slice.stats = {0.7071067811865476, 12.5, 0.99, 40};
  state.topk = {slice};
  state.frontier_ss = {40.0, 33.0};
  state.frontier_se = {12.5, 0.1 + 0.2};  // deliberately non-representable
  state.frontier_sm = {0.99, 1e-17};
  state.frontier = linalg::CsrMatrix(2, 5, {0, 2, 4}, {0, 3, 1, 4},
                                     {1.0, 1.0, 1.0, 1.0});
  return state;
}

TEST(CheckpointTest, SaveLoadRoundTripIsBitIdentical) {
  const std::string dir = MakeTempDir("roundtrip");
  const CheckpointState state = MakeState();
  ASSERT_TRUE(SaveCheckpoint(dir, state).ok());
  ASSERT_TRUE(CheckpointFileExists(dir));

  StatusOr<CheckpointState> loaded = LoadCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->engine, state.engine);
  EXPECT_EQ(loaded->config_hash, state.config_hash);
  EXPECT_EQ(loaded->data_hash, state.data_hash);
  EXPECT_EQ(loaded->level, state.level);
  EXPECT_EQ(loaded->effective_sigma, state.effective_sigma);
  EXPECT_EQ(loaded->degradation_steps, state.degradation_steps);
  EXPECT_EQ(loaded->candidates_capped, state.candidates_capped);
  EXPECT_EQ(loaded->total_evaluated, state.total_evaluated);
  ASSERT_EQ(loaded->levels.size(), state.levels.size());
  EXPECT_EQ(loaded->levels[0].candidates, state.levels[0].candidates);
  EXPECT_EQ(loaded->levels[0].seconds, state.levels[0].seconds);
  ASSERT_EQ(loaded->topk.size(), state.topk.size());
  EXPECT_EQ(loaded->topk[0].predicates, state.topk[0].predicates);
  // Doubles must survive exactly (%.17g), including non-representable sums.
  EXPECT_EQ(loaded->topk[0].stats.score, state.topk[0].stats.score);
  EXPECT_EQ(loaded->frontier_ss, state.frontier_ss);
  EXPECT_EQ(loaded->frontier_se, state.frontier_se);
  EXPECT_EQ(loaded->frontier_sm, state.frontier_sm);
  EXPECT_EQ(loaded->frontier.rows(), state.frontier.rows());
  EXPECT_EQ(loaded->frontier.cols(), state.frontier.cols());
  EXPECT_EQ(loaded->frontier.row_ptr(), state.frontier.row_ptr());
  EXPECT_EQ(loaded->frontier.col_idx(), state.frontier.col_idx());
}

TEST(CheckpointTest, CorruptedFileIsRejected) {
  const std::string dir = MakeTempDir("corrupt");
  ASSERT_TRUE(SaveCheckpoint(dir, MakeState()).ok());
  const std::string path = CheckpointFilePath(dir);
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  ASSERT_GT(content.size(), 60u);
  // Flip one payload byte; the trailing checksum must catch it.
  content[content.size() / 2] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }
  EXPECT_FALSE(LoadCheckpoint(dir).ok());
}

TEST(CheckpointTest, MissingFileIsAnError) {
  const std::string dir = MakeTempDir("missing");
  EXPECT_FALSE(CheckpointFileExists(dir));
  EXPECT_FALSE(LoadCheckpoint(dir).ok());
}

TEST(CheckpointTest, SliceSetCsrConversionRoundTrips) {
  SliceSet set;
  set.Add({0, 4, 7});
  set.Add({2});
  set.Add({1, 3});
  const linalg::CsrMatrix csr = SliceSetToCsr(set, 8);
  EXPECT_EQ(csr.rows(), 3);
  EXPECT_EQ(csr.cols(), 8);
  const SliceSet back = CsrToSliceSet(csr);
  ASSERT_EQ(back.size(), set.size());
  for (int64_t i = 0; i < set.size(); ++i) {
    ASSERT_EQ(back.Length(i), set.Length(i)) << "slice " << i;
    for (int64_t k = 0; k < set.Length(i); ++k) {
      EXPECT_EQ(back.Columns(i)[k], set.Columns(i)[k]);
    }
  }
}

/// Interrupt a governed run with a simulated-time deadline, then resume it
/// without limits: the final top-K must be bit-identical to a run that was
/// never interrupted.
void RunInterruptAndResume(
    const char* tag,
    StatusOr<SliceLineResult> (*engine)(const data::IntMatrix&,
                                        const std::vector<double>&,
                                        const SliceLineConfig&)) {
  const Input input = MakeInput(21);
  SliceLineConfig config;
  config.k = 4;
  config.min_support = 2;

  auto baseline = engine(input.x0, input.errors, config);
  ASSERT_TRUE(baseline.ok()) << tag;
  ASSERT_FALSE(baseline->outcome.partial) << tag;
  ASSERT_GE(baseline->levels.size(), 3u)
      << tag << ": dataset too small to interrupt meaningfully";

  const std::string dir = MakeTempDir(std::string("resume_") + tag);
  SimulatedClock clock(0.0, 1.0);
  RunContext ctx;
  ctx.set_clock(&clock);
  ctx.set_deadline_seconds(6.0);
  config.run_context = &ctx;
  config.checkpoint_dir = dir;
  auto interrupted = engine(input.x0, input.errors, config);
  ASSERT_TRUE(interrupted.ok()) << tag;
  ASSERT_TRUE(interrupted->outcome.partial) << tag;
  ASSERT_TRUE(CheckpointFileExists(dir)) << tag;

  config.run_context = nullptr;
  config.resume = true;
  auto resumed = engine(input.x0, input.errors, config);
  ASSERT_TRUE(resumed.ok()) << tag;
  EXPECT_TRUE(resumed->outcome.resumed_from_checkpoint) << tag;
  EXPECT_FALSE(resumed->outcome.partial) << tag;

  ASSERT_EQ(resumed->top_k.size(), baseline->top_k.size()) << tag;
  for (size_t i = 0; i < baseline->top_k.size(); ++i) {
    EXPECT_EQ(resumed->top_k[i].stats.score, baseline->top_k[i].stats.score)
        << tag << " rank " << i;
    EXPECT_EQ(resumed->top_k[i].stats.size, baseline->top_k[i].stats.size)
        << tag << " rank " << i;
    EXPECT_EQ(resumed->top_k[i].predicates, baseline->top_k[i].predicates)
        << tag << " rank " << i;
  }
  EXPECT_EQ(resumed->total_evaluated, baseline->total_evaluated) << tag;
}

TEST(CheckpointTest, NativeResumeAfterInterruptIsBitIdentical) {
  RunInterruptAndResume("native", RunSliceLine);
}

TEST(CheckpointTest, LaResumeAfterInterruptIsBitIdentical) {
  RunInterruptAndResume("la", RunSliceLineLA);
}

using Engine = StatusOr<SliceLineResult> (*)(const data::IntMatrix&,
                                             const std::vector<double>&,
                                             const SliceLineConfig&);

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Applies `edit` to the payload of the checkpoint in `dir` and writes it
/// back with a recomputed checksum, so only the edit can make it unusable.
void RewriteCheckpoint(const std::string& dir,
                       const std::function<void(std::string*)>& edit) {
  const std::string path = CheckpointFilePath(dir);
  std::string payload = ReadFile(path);
  const size_t tail = payload.rfind("\nchecksum ");
  ASSERT_NE(tail, std::string::npos);
  payload.resize(tail + 1);
  edit(&payload);
  Fnv1a checksum;
  checksum.AddString(payload);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << payload << "checksum " << checksum.hash() << "\n";
}

/// Replaces the value on the line starting with `key ` in `payload`.
void ReplaceKeyLine(std::string* payload, const std::string& key,
                    const std::string& value) {
  const size_t at = payload->find("\n" + key + " ");
  ASSERT_NE(at, std::string::npos) << key;
  const size_t begin = at + key.size() + 2;
  payload->replace(begin, payload->find('\n', begin) - begin, value);
}

/// Leaves a mid-run checkpoint of `engine` in `dir` (a simulated deadline
/// interrupts the run), lets `edit` tamper with it, and resumes. The file
/// must be ignored: the resumed run starts fresh and is bit-identical to an
/// uninterrupted one.
void ExpectTamperedCheckpointStartsFresh(
    const char* tag, Engine engine,
    const std::function<void(std::string*)>& edit) {
  const Input input = MakeInput(24);
  SliceLineConfig config;
  config.k = 4;
  config.min_support = 2;
  auto baseline = engine(input.x0, input.errors, config);
  ASSERT_TRUE(baseline.ok()) << tag;

  config.checkpoint_dir = MakeTempDir(tag);
  SimulatedClock clock(0.0, 1.0);
  RunContext ctx;
  ctx.set_clock(&clock);
  ctx.set_deadline_seconds(6.0);
  config.run_context = &ctx;
  auto interrupted = engine(input.x0, input.errors, config);
  ASSERT_TRUE(interrupted.ok() && interrupted->outcome.partial) << tag;
  RewriteCheckpoint(config.checkpoint_dir, edit);
  if (::testing::Test::HasFatalFailure()) return;

  config.run_context = nullptr;
  config.resume = true;
  auto resumed = engine(input.x0, input.errors, config);
  ASSERT_TRUE(resumed.ok()) << tag;
  EXPECT_FALSE(resumed->outcome.resumed_from_checkpoint) << tag;
  EXPECT_EQ(CompareIdentical(*baseline, *resumed, tag), "");
}

/// The frontier_stats count of a checkpoint that declares 2^39 entries: a
/// reader that sized its vectors by it would ask for terabytes.
void OversizeFrontierCount(std::string* payload) {
  ReplaceKeyLine(payload, "frontier_stats", "549755813888");
}

/// The embedded MatrixMarket frontier widened to 100000 columns, its last
/// entry moved to column 99999 (1-based 100000).
void WidenFrontier(std::string* payload) {
  const size_t key = payload->find("\nfrontier ");
  ASSERT_NE(key, std::string::npos);
  const size_t mm = payload->find('\n', key + 1) + 1;
  std::istringstream in(payload->substr(mm));
  std::string header;  // banner and comments
  std::string line;
  while (std::getline(in, line) && line.rfind('%', 0) == 0) {
    header += line + "\n";
  }
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t nnz = 0;
  std::istringstream(line) >> rows >> cols >> nnz;
  ASSERT_GT(nnz, 0);
  std::vector<std::string> entries;
  while (std::getline(in, line)) entries.push_back(line);
  int64_t r = 0;
  std::istringstream(entries.back()) >> r;
  entries.back() = std::to_string(r) + " 100000 1";
  std::string body = header + std::to_string(rows) + " 100000 " +
                     std::to_string(nnz) + "\n";
  for (const std::string& entry : entries) body += entry + "\n";
  payload->replace(mm, std::string::npos, body);
  ReplaceKeyLine(payload, "frontier", std::to_string(body.size()));
}

/// The embedded MatrixMarket frontier's size line declaring 2^36 rows: a
/// parser that sized its row pointers by it would ask for 512 GiB.
void OversizeFrontierRows(std::string* payload) {
  const size_t key = payload->find("\nfrontier ");
  ASSERT_NE(key, std::string::npos);
  const size_t mm = payload->find('\n', key + 1) + 1;
  size_t size_line = mm;
  while (payload->compare(size_line, 1, "%") == 0) {
    size_line = payload->find('\n', size_line) + 1;
  }
  payload->replace(size_line, payload->find(' ', size_line) - size_line,
                   "68719476736");
  ReplaceKeyLine(payload, "frontier", std::to_string(payload->size() - mm));
}

TEST(CheckpointTest, OversizedFrontierRowsAreAnError) {
  const std::string dir = MakeTempDir("oversized_rows");
  ASSERT_TRUE(SaveCheckpoint(dir, MakeState()).ok());
  RewriteCheckpoint(dir, OversizeFrontierRows);
  const StatusOr<CheckpointState> loaded = LoadCheckpoint(dir);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, NativeOversizedFrontierRowsStartFresh) {
  ExpectTamperedCheckpointStartsFresh("oversized_rows_native", RunSliceLine,
                                      OversizeFrontierRows);
}

TEST(CheckpointTest, OversizedCountIsAnError) {
  const std::string dir = MakeTempDir("oversized");
  ASSERT_TRUE(SaveCheckpoint(dir, MakeState()).ok());
  RewriteCheckpoint(dir, OversizeFrontierCount);
  const StatusOr<CheckpointState> loaded = LoadCheckpoint(dir);
  EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange);
}

TEST(CheckpointTest, NativeOversizedCountStartsFresh) {
  ExpectTamperedCheckpointStartsFresh("oversized_native", RunSliceLine,
                                      OversizeFrontierCount);
}

TEST(CheckpointTest, LaOversizedCountStartsFresh) {
  ExpectTamperedCheckpointStartsFresh("oversized_la", RunSliceLineLA,
                                      OversizeFrontierCount);
}

TEST(CheckpointTest, NativeFrontierColumnOutOfRangeStartsFresh) {
  ExpectTamperedCheckpointStartsFresh("wide_native", RunSliceLine,
                                      WidenFrontier);
}

TEST(CheckpointTest, LaFrontierColumnOutOfRangeStartsFresh) {
  ExpectTamperedCheckpointStartsFresh("wide_la", RunSliceLineLA,
                                      WidenFrontier);
}

TEST(CheckpointTest, VersionOneFileStartsFresh) {
  ExpectTamperedCheckpointStartsFresh("v1", RunSliceLine, [](std::string* p) {
    ASSERT_EQ(p->rfind("sliceline-checkpoint v2\n", 0), 0u);
    p->replace(0, 23, "sliceline-checkpoint v1");
  });
}

TEST(CheckpointTest, CheckResumableRejectsFrontiersThatDoNotFitTheRun) {
  const data::FeatureOffsets offsets = data::OffsetsFromDomains({2, 3});
  CheckpointState state;
  state.level = 2;
  state.frontier_ss = {40.0};
  state.frontier_se = {12.5};
  state.frontier_sm = {0.9};
  state.frontier = linalg::CsrMatrix(1, 5, {0, 2}, {1, 4}, {1.0, 1.0});
  EXPECT_TRUE(CheckResumable(state, offsets, 100, 4).ok());

  auto rejects = [&](const CheckpointState& bad, const char* what) {
    EXPECT_EQ(CheckResumable(bad, offsets, 100, 4).code(),
              StatusCode::kInvalidArgument)
        << what;
  };
  CheckpointState bad = state;
  bad.frontier = linalg::CsrMatrix(1, 6, {0, 2}, {1, 5}, {1.0, 1.0});
  rejects(bad, "width");
  bad = state;
  bad.frontier = linalg::CsrMatrix(1, 5, {0, 2}, {2, 4}, {1.0, 1.0});
  rejects(bad, "two predicates on feature 1");
  bad = state;
  bad.level = 3;
  rejects(bad, "row length");
  bad = state;
  bad.level = 0;
  rejects(bad, "level");
  bad.level = 3;
  bad.frontier = linalg::CsrMatrix(0, 5, {0}, {}, {});
  bad.frontier_ss.clear();
  bad.frontier_se.clear();
  bad.frontier_sm.clear();
  rejects(bad, "level above the feature count");
  bad = state;
  bad.frontier_sm.clear();
  rejects(bad, "stats alignment");
  bad = state;
  bad.frontier_ss = {1e300};
  rejects(bad, "size above n");
  bad = state;
  bad.topk.resize(5);
  rejects(bad, "top-K above k");
}

TEST(CheckpointTest, MismatchedCheckpointFallsBackToFreshRun) {
  const Input input = MakeInput(22);
  SliceLineConfig config;
  config.k = 4;
  config.min_support = 2;
  const std::string dir = MakeTempDir("mismatch");

  // Produce a checkpoint under one config...
  config.checkpoint_dir = dir;
  auto first = RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(CheckpointFileExists(dir));

  // ...then resume under a different k: the config hash differs, so the
  // run must silently start fresh and still be complete and correct.
  config.k = 2;
  config.resume = true;
  auto mismatched = RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(mismatched.ok());
  EXPECT_FALSE(mismatched->outcome.resumed_from_checkpoint);
  EXPECT_FALSE(mismatched->outcome.partial);

  config.checkpoint_dir.clear();
  config.resume = false;
  auto reference = RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(mismatched->top_k.size(), reference->top_k.size());
  for (size_t i = 0; i < reference->top_k.size(); ++i) {
    EXPECT_EQ(mismatched->top_k[i].stats.score,
              reference->top_k[i].stats.score);
  }
}

TEST(CheckpointTest, ResumeWithoutCheckpointStartsFresh) {
  const Input input = MakeInput(23);
  SliceLineConfig config;
  config.k = 3;
  config.min_support = 4;
  config.checkpoint_dir = MakeTempDir("fresh");
  config.resume = true;  // nothing to resume from
  auto result = RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->outcome.resumed_from_checkpoint);
  EXPECT_FALSE(result->outcome.partial);
}

}  // namespace
}  // namespace sliceline::core
