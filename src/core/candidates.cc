#include "core/candidates.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/run_context.h"
#include "common/thread_pool.h"

namespace sliceline::core {

namespace {

/// The surviving pairs of one contiguous range of outer parents.
struct PairChunk {
  std::vector<int32_t> records;
  int64_t pairs = 0;
  int64_t pruned = 0;
};

}  // namespace

SliceSet GeneratePairCandidates(const SliceSet& prev,
                                const EvalResult& prev_stats, int level,
                                const ScoringContext& context, int64_t sigma,
                                double score_threshold,
                                const SliceLineConfig& config,
                                const data::FeatureOffsets& offsets,
                                std::vector<ParentBounds>* bounds_out,
                                CandidateGenStats* gen_stats) {
  SLICELINE_CHECK(level >= 2 && level < (1 << 15));  // packed lack positions
  const int64_t parent_len = level - 1;
  const RunContext* ctx = config.run_context;
  CandidateGenStats stats;
  SliceSet out;
  bounds_out->clear();

  auto add_parent = [&](ParentBounds* bounds, int32_t parent) {
    bounds->AddParent(static_cast<int64_t>(prev_stats.sizes[parent]),
                      prev_stats.error_sums[parent],
                      prev_stats.max_errors[parent]);
  };
  auto bounds_of = [&](std::initializer_list<int32_t> parents) {
    ParentBounds bounds;
    for (int32_t parent : parents) add_parent(&bounds, parent);
    return bounds;
  };
  // The Equation 3 bound only falls as parents are folded in (it is monotone
  // in each parent minimum): a failing bound fails for every parent superset.
  auto fails_forever = [&](const ParentBounds& bounds) {
    if (config.prune_size && bounds.size_ub < sigma) return true;
    if (!config.prune_score) return false;
    const double ub = UpperBoundScore(context, sigma, bounds);
    return !(ub > score_threshold && ub >= 0.0);
  };

  // Step 1: keep only valid parents (minimum support unless size pruning is
  // ablated away; se > 0 is part of the problem and stays on in every
  // ablation). A parent whose own bound fails is dropped too: every pair with
  // it fails the pair check below, so no candidate, bound or np changes.
  std::vector<int32_t> valid;
  for (int32_t i = 0; i < prev.size(); ++i) {
    if (prev.Length(i) != parent_len || !(prev_stats.error_sums[i] > 0.0) ||
        (config.prune_size && prev_stats.sizes[i] < sigma)) {
      continue;
    }
    const bool fails = fails_forever(bounds_of({i}));
    stats.parents_filtered += fails;
    if (!fails) valid.push_back(i);
  }
  const int64_t p = static_cast<int64_t>(valid.size());
  std::vector<int> feature_of(static_cast<size_t>(offsets.total));
  for (int64_t c = 0; c < offsets.total; ++c) {
    feature_of[c] = offsets.FeatureOfColumn(c);
  }

  // Each surviving pair appends one fixed-width record: the merged key, the
  // two parent rows, and the key positions the two parents lack (packed).
  const int64_t width = level + 3;
  auto process_pair = [&](int32_t s1, int32_t s2, PairChunk* chunk) {
    ++chunk->pairs;
    if (fails_forever(bounds_of({s1, s2}))) {
      ++chunk->pruned;
      return;
    }
    const int64_t* c1 = prev.Columns(s1);
    const int64_t* c2 = prev.Columns(s2);
    const size_t base = chunk->records.size();
    chunk->records.resize(base + static_cast<size_t>(width));
    int32_t* key = chunk->records.data() + base;
    int64_t i1 = 0, i2 = 0, k = 0;
    int32_t lacks1 = 0, lacks2 = 0;
    // Sorted union of the two parents.
    for (; k < level && i1 + i2 < 2 * parent_len; ++k) {
      constexpr int64_t kEnd = std::numeric_limits<int64_t>::max();
      const int64_t a = i1 < parent_len ? c1[i1] : kEnd;
      const int64_t b = i2 < parent_len ? c2[i2] : kEnd;
      if (b < a) lacks1 = static_cast<int32_t>(k);
      if (a < b) lacks2 = static_cast<int32_t>(k);
      key[k] = static_cast<int32_t>(std::min(a, b));
      i1 += a <= b;
      i2 += b <= a;
    }
    bool ok = k == level && i1 + i2 == 2 * parent_len;
    for (int64_t j = 1; ok && j < level; ++j) {  // one predicate per feature
      ok = feature_of[key[j - 1]] != feature_of[key[j]];
    }
    if (!ok) {
      chunk->records.resize(base);
      return;
    }
    key[level] = s1;
    key[level + 1] = s2;
    key[level + 2] = lacks1 | (lacks2 << 16);
  };

  // Step 2: enumerate compatible pairs (|intersection| == L-2): all pairs for
  // L == 2; deeper, an inverted index over the surviving parents (S^T) visits
  // exactly the non-zero entries of the S*S^T self-join (Equation 6).
  std::vector<std::vector<int32_t>> column_index(
      level > 2 ? static_cast<size_t>(offsets.total) : 0);
  for (int32_t a = 0; level > 2 && a < p; ++a) {
    for (int64_t k = 0; k < parent_len; ++k) {
      column_index[prev.Columns(valid[a])[k]].push_back(a);
    }
  }
  std::atomic<bool> stopped{false};
  auto enumerate = [&](int64_t begin, int64_t end, PairChunk* chunk) {
    std::vector<int32_t> overlap(level > 2 ? static_cast<size_t>(p) : 0, 0);
    std::vector<int32_t> touched;
    for (int64_t a = begin; a < end; ++a) {
      // Strided poll: a long level stops within 64 outer parents.
      if ((a - begin) % 64 == 0 && ctx != nullptr && ctx->ShouldStop()) {
        stopped = true;
        return;
      }
      const int32_t s = valid[a];
      for (int64_t b = a + 1; level == 2 && b < p; ++b) {
        process_pair(s, valid[b], chunk);
      }
      touched.clear();
      for (int64_t k = 0; level > 2 && k < parent_len; ++k) {
        const auto& list = column_index[prev.Columns(s)[k]];
        // Only count positions after a (upper triangle of S S^T).
        for (auto it = std::upper_bound(list.begin(), list.end(), a);
             it != list.end(); ++it) {
          if (overlap[*it]++ == 0) touched.push_back(*it);
        }
      }
      for (int32_t b : touched) {
        if (overlap[b] == level - 2) process_pair(s, valid[b], chunk);
        overlap[b] = 0;
      }
    }
  };
  // Step 3: contiguous ranges of at least 64 outer parents run on the pool;
  // concatenating them in range order gives serial pair order for any pool.
  ThreadPool& pool = GlobalThreadPool();
  const int64_t threads = config.parallel ? pool.num_threads() : 1;
  std::vector<PairChunk> chunks(std::min(
      p, std::clamp<int64_t>(p / 64, 1, threads > 1 ? 4 * threads : 1)));
  const int64_t num_chunks = static_cast<int64_t>(chunks.size());
  auto run_chunks = [&](size_t first, size_t last) {
    for (int64_t c = first; c < static_cast<int64_t>(last); ++c) {
      enumerate(c * p / num_chunks, (c + 1) * p / num_chunks, &chunks[c]);
    }
  };
  if (!pool.ParallelForRange(chunks.size(), ctx, run_chunks)) stopped = true;
  size_t total = 0;
  for (const PairChunk& chunk : chunks) total += chunk.records.size();
  std::vector<int32_t> records;
  records.reserve(total);
  for (PairChunk& chunk : chunks) {
    stats.pairs += chunk.pairs;
    stats.pruned += chunk.pruned;
    records.insert(records.end(), chunk.records.begin(), chunk.records.end());
    std::vector<int32_t>().swap(chunk.records);
  }
  if (gen_stats != nullptr) *gen_stats = stats;
  // A stopped run discards the level; the caller reports the stop.
  if (stopped) return out;
  // The buffer and its sort scratch, charged on the calling thread.
  const MemoryCharge charge(2 * static_cast<int64_t>(total * sizeof(int32_t)));

  // Stable LSD counting sort on the key columns, last column first: records
  // end up in lexicographic key order, each key's run in pair order.
  auto sort_by_key = [&](std::vector<int32_t>* recs) {
    std::vector<int32_t> scratch(recs->size());
    std::vector<int64_t> next(static_cast<size_t>(offsets.total) + 1);
    for (int64_t pos = level - 1; pos >= 0; --pos) {
      std::fill(next.begin(), next.end(), 0);
      for (size_t r = pos; r < recs->size(); r += width) ++next[(*recs)[r] + 1];
      std::partial_sum(next.begin(), next.end(), next.begin());
      for (size_t r = 0; r < recs->size(); r += width) {
        const int32_t* rec = recs->data() + r;
        std::copy(rec, rec + width, scratch.data() + next[rec[pos]]++ * width);
      }
      recs->swap(scratch);
    }
  };
  // Calls fn(first, last) for each run of equal keys in a sorted buffer.
  auto for_each_run = [&](const std::vector<int32_t>& recs, const auto& fn) {
    const int32_t* end = recs.data() + recs.size();
    for (const int32_t* first = recs.data(); first != end;) {
      const int32_t* last = first + width;
      while (last != end && std::equal(first, first + level, last)) {
        last += width;
      }
      fn(first, last);
      first = last;
    }
  };
  // np (Equation 8) counts the distinct parent column vectors of a key. A
  // parent is the key minus one column, so np is the number of distinct key
  // positions the run's parents lack (duplicate parent copies lack one).
  std::vector<char> lacked(static_cast<size_t>(level), 0);
  auto count_parents = [&](const int32_t* first, const int32_t* last) {
    int np = 0;
    for (const int32_t* r = first; r != last; r += width) {
      for (int32_t pos : {r[level + 2] & 0xffff, r[level + 2] >> 16}) {
        np += lacked[pos] == 0;
        lacked[pos] = 1;
      }
    }
    std::fill(lacked.begin(), lacked.end(), 0);
    return np;
  };

  // Step 4: final Equation 9 pruning.
  std::vector<int64_t> columns(static_cast<size_t>(level));
  auto finalize = [&](const int32_t* key, const ParentBounds& bounds, int np) {
    if (fails_forever(bounds) || (config.prune_parents && np != level)) {
      ++stats.pruned;
      return;
    }
    std::copy(key, key + level, columns.begin());
    out.Add(columns);
    bounds_out->push_back(bounds);
  };
  if (config.deduplicate) {
    // One candidate per key, in lexicographic column order, so runs (and
    // the engines) agree on candidate order and top-K tie-breaking.
    sort_by_key(&records);
    for_each_run(records, [&](const int32_t* first, const int32_t* last) {
      ParentBounds bounds;
      for (const int32_t* r = first; r != last; r += width) {
        add_parent(&bounds, r[level]);
        add_parent(&bounds, r[level + 1]);
      }
      bounds.parents = count_parents(first, last);
      stats.duplicates += (last - first) / width - 1;
      finalize(first, bounds, bounds.parents);
    });
  } else {
    // Each pair keeps its own bounds (the dedup ablation); np comes from the
    // key's run in a sorted copy whose first parent field holds the index.
    std::vector<int> np_of(total / static_cast<size_t>(width), 0);
    if (config.prune_parents) {
      std::vector<int32_t> sorted = records;
      for (size_t r = 0; r < np_of.size(); ++r) {
        sorted[r * width + level] = static_cast<int32_t>(r);
      }
      sort_by_key(&sorted);
      for_each_run(sorted, [&](const int32_t* first, const int32_t* last) {
        const int np = count_parents(first, last);
        for (const int32_t* r = first; r != last; r += width) {
          np_of[r[level]] = np;
        }
      });
    }
    for (size_t r = 0; r < np_of.size(); ++r) {
      const int32_t* rec = records.data() + r * width;
      finalize(rec, bounds_of({rec[level], rec[level + 1]}), np_of[r]);
    }
  }
  if (gen_stats != nullptr) *gen_stats = stats;
  return out;
}

}  // namespace sliceline::core
