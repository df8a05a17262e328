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

/// What one contiguous range of outer parents produced: pair records (pair
/// join) or finished candidates and their bounds (prefix join). The charge
/// is made on the calling thread, so it holds that thread's memory budget;
/// pool threads resize it as the buffers grow (MemoryBudget::Charge is
/// atomic).
struct Chunk {
  std::vector<int32_t> records;
  std::vector<int64_t> columns;
  std::vector<ParentBounds> bounds;
  CandidateGenStats stats;
  MemoryCharge charge{0};
  // Pair-join scratch: overlap counts (all zero between outer parents) and
  // the partners they touched.
  std::vector<int32_t> overlap;
  std::vector<int32_t> touched;
  // Prefix-join scratch, per dropped key position: the cursor into the
  // other parent's sibling group (-1 before the group is searched) and the
  // group's end.
  std::vector<int32_t> cursor;
  std::vector<int32_t> cursor_end;

  void ChargeBuffers() {
    charge.Resize(static_cast<int64_t>(records.size() * sizeof(int32_t) +
                                       columns.size() * sizeof(int64_t) +
                                       bounds.size() * sizeof(ParentBounds)));
  }
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
  auto report = [&] {
    stats.pruned = stats.pair_rejected + stats.candidate_rejected;
    if (gen_stats != nullptr) *gen_stats = stats;
  };

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
    return config.prune_score &&
           !UpperBoundClears(context, sigma, bounds, score_threshold);
  };
  // The test reads only the three minima, so bounds with the same minima as
  // bounds known to pass pass too.
  auto same_minima = [](const ParentBounds& x, const ParentBounds& y) {
    return x.size_ub == y.size_ub && x.error_ub == y.error_ub &&
           x.max_error_ub == y.max_error_ub;
  };

  // Step 1: keep only valid parents (minimum support unless size pruning is
  // ablated away; se > 0 is part of the problem and stays on in every
  // ablation). A parent whose own bound fails is dropped too: every pair with
  // it fails the pair check below, so no candidate, bound or np changes.
  // The parents are judged in ranges on the pool and kept in `prev` order.
  ThreadPool& pool = GlobalThreadPool();
  const int64_t threads = config.parallel ? pool.num_threads() : 1;
  enum Verdict : char { kInvalid, kFiltered, kKept };
  std::vector<Verdict> verdicts(static_cast<size_t>(prev.size()), kInvalid);
  auto judge = [&](size_t first, size_t last) {
    for (size_t i = first; i < last; ++i) {
      if (prev.Length(i) == parent_len && prev_stats.error_sums[i] > 0.0 &&
          (!config.prune_size || prev_stats.sizes[i] >= sigma)) {
        verdicts[i] = fails_forever(bounds_of({static_cast<int32_t>(i)}))
                          ? kFiltered
                          : kKept;
      }
    }
  };
  if (threads > 1) {
    pool.ParallelForRange(verdicts.size(), judge);
  } else {
    judge(0, verdicts.size());
  }
  std::vector<int32_t> kept;
  for (int32_t i = 0; i < prev.size(); ++i) {
    stats.parents_filtered += verdicts[i] == kFiltered;
    if (verdicts[i] == kKept) kept.push_back(i);
  }
  verdicts = {};
  const int64_t p = static_cast<int64_t>(kept.size());
  std::vector<int> feature_of(static_cast<size_t>(offsets.total));
  for (int64_t c = 0; c < offsets.total; ++c) {
    feature_of[c] = offsets.FeatureOfColumn(c);
  }
  const bool prefix_join = config.prune_parents && config.deduplicate;
  auto parent_less = [&](int32_t x, int32_t y) {
    return std::lexicographical_compare(prev.Columns(x),
                                        prev.Columns(x) + parent_len,
                                        prev.Columns(y),
                                        prev.Columns(y) + parent_len);
  };
  if (prefix_join && !std::is_sorted(kept.begin(), kept.end(), parent_less)) {
    std::sort(kept.begin(), kept.end(), parent_less);
  }

  // Step 2: contiguous ranges of at least 64 outer parents run on the pool;
  // concatenating them in range order gives serial order for any pool size.
  // join(a, chunk) handles outer parent kept[a]. A range polls the run
  // context every 64 outer parents and charges its buffers after each one.
  std::vector<Chunk> chunks(std::min(
      p, std::clamp<int64_t>(p / 64, 1, threads > 1 ? 4 * threads : 1)));
  const int64_t num_chunks = static_cast<int64_t>(chunks.size());
  std::atomic<StopReason> stop{StopReason::kNone};
  auto run_chunks = [&](const auto& join) {
    pool.ParallelForRange(chunks.size(), [&](size_t first, size_t last) {
      for (int64_t c = first; c < static_cast<int64_t>(last); ++c) {
        const int64_t begin = c * p / num_chunks;
        for (int64_t a = begin; a < (c + 1) * p / num_chunks; ++a) {
          const StopReason reason = (a - begin) % 64 == 0 && ctx != nullptr
                                        ? ctx->CheckStop()
                                        : StopReason::kNone;
          if (reason != StopReason::kNone) {
            stop = reason;
            break;
          }
          join(a, &chunks[c]);
          chunks[c].ChargeBuffers();
        }
      }
    });
    stats.stop = stop;
    for (const Chunk& chunk : chunks) {
      stats.pairs += chunk.stats.pairs;
      stats.pair_rejected += chunk.stats.pair_rejected;
      stats.candidate_rejected += chunk.stats.candidate_rejected;
    }
    report();
  };

  if (prefix_join) {
    // In kept order: each parent's last column, and one past the end of its
    // sibling group (the contiguous parents sharing its first L-2 columns).
    std::vector<int64_t> last(static_cast<size_t>(p));
    std::vector<int32_t> group_end(static_cast<size_t>(p));
    for (int64_t i = p - 1; i >= 0; --i) {
      const int64_t* ci = prev.Columns(kept[i]);
      last[i] = ci[level - 2];
      group_end[i] = i + 1 < p && std::equal(ci, ci + level - 2,
                                             prev.Columns(kept[i + 1]))
                         ? group_end[i + 1]
                         : static_cast<int32_t>(i + 1);
    }
    // Each sibling b of kept[a] that follows it forms the key
    // columns(a) + last[b]; parents hold one predicate per feature, so the
    // key's only unchecked feature pair is last[a], last[b]. Without
    // position skip < L-2 the key is the parent whose first L-2 columns are
    // a's without a[skip] and whose last column is last[b]. That parent's
    // sibling group lies after a's own, and its last columns rise with b:
    // one binary search, on a's first key that passes its pair bound, and a
    // forward cursor find that parent for every key of a.
    run_chunks([&](int64_t a, Chunk* chunk) {
      const int64_t* ca = prev.Columns(kept[a]);
      const ParentBounds own_a = bounds_of({kept[a]});
      std::vector<int32_t>& cursor = chunk->cursor;
      std::vector<int32_t>& cursor_end = chunk->cursor_end;
      cursor.assign(static_cast<size_t>(level - 2), -1);
      cursor_end.resize(static_cast<size_t>(level - 2));
      // Three-way comparison of kept[x]'s first L-2 columns with a's
      // columns without a[skip].
      auto compare = [&](int32_t x, int64_t skip) {
        const int64_t* cx = prev.Columns(kept[x]);
        for (int64_t i = 0; i < level - 2; ++i) {
          const int64_t k = ca[i + (i >= skip)];
          if (cx[i] != k) return cx[i] < k ? -1 : 1;
        }
        return 0;
      };
      auto find_group = [&](int64_t skip) {
        int32_t lo = group_end[a];
        for (int32_t hi = static_cast<int32_t>(p); lo < hi;) {
          const int32_t mid = lo + (hi - lo) / 2;
          if (compare(mid, skip) < 0) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        cursor[skip] = lo;
        cursor_end[skip] =
            lo < p && compare(lo, skip) == 0 ? group_end[lo] : lo;
      };
      for (int64_t b = a + 1; b < group_end[a]; ++b) {
        ++chunk->stats.pairs;
        if (feature_of[last[a]] == feature_of[last[b]]) continue;
        // Kept parents pass their own bound, so a pair whose minima are
        // one parent's own passes without a test.
        ParentBounds bounds = own_a;
        add_parent(&bounds, kept[b]);
        if (!same_minima(bounds, own_a) &&
            !same_minima(bounds, bounds_of({kept[b]})) &&
            fails_forever(bounds)) {
          ++chunk->stats.pair_rejected;
          continue;
        }
        // The pair's bound passes; the full bound needs a test only when
        // another parent lowers a minimum.
        bool complete = true;
        bool lowered = false;
        for (int64_t skip = 0; complete && skip < level - 2; ++skip) {
          if (cursor[skip] < 0) find_group(skip);
          int32_t& c = cursor[skip];
          while (c < cursor_end[skip] && last[c] < last[b]) ++c;
          complete = c < cursor_end[skip] && last[c] == last[b];
          if (complete) {
            const ParentBounds before = bounds;
            add_parent(&bounds, kept[c]);
            lowered = lowered || !same_minima(bounds, before);
          }
        }
        if (!complete || (lowered && fails_forever(bounds))) {
          ++chunk->stats.candidate_rejected;
          continue;
        }
        chunk->columns.insert(chunk->columns.end(), ca, ca + parent_len);
        chunk->columns.push_back(last[b]);
        chunk->bounds.push_back(bounds);
      }
    });
    // The join's arrays go before the output is assembled, the level's
    // memory peak.
    last = {};
    group_end = {};
    // A stopped run discards the level; the caller reports the stop.
    if (stats.stop != StopReason::kNone) return out;
    // Each chunk's keys and bounds join the output in one bulk copy, and
    // its buffers go as soon as they are copied.
    int64_t total = 0;
    for (const Chunk& chunk : chunks) total += chunk.bounds.size();
    out.Reserve(total, total * level);
    bounds_out->reserve(static_cast<size_t>(total));
    for (Chunk& chunk : chunks) {
      out.AddUniform(chunk.columns.data(),
                     chunk.columns.data() + chunk.columns.size(), level);
      bounds_out->insert(bounds_out->end(), chunk.bounds.begin(),
                         chunk.bounds.end());
      chunk = Chunk();
    }
    return out;
  }

  // Pair join (the ablations). Each surviving pair appends one fixed-width
  // record: the merged key, the two parent rows, and the key positions the
  // two parents lack (packed).
  const int64_t width = level + 3;
  auto process_pair = [&](int32_t s1, int32_t s2, Chunk* chunk) {
    ++chunk->stats.pairs;
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
    if (ok && fails_forever(bounds_of({s1, s2}))) {
      ++chunk->stats.pair_rejected;
      ok = false;
    }
    if (!ok) {
      chunk->records.resize(base);
      return;
    }
    key[level] = s1;
    key[level + 1] = s2;
    key[level + 2] = lacks1 | (lacks2 << 16);
  };

  // Enumerate compatible pairs (|intersection| == L-2): all pairs for
  // L == 2; deeper, an inverted index over the kept parents (S^T) visits
  // exactly the non-zero entries of the S*S^T self-join (Equation 6).
  std::vector<std::vector<int32_t>> column_index(
      level > 2 ? static_cast<size_t>(offsets.total) : 0);
  for (int32_t a = 0; level > 2 && a < p; ++a) {
    for (int64_t k = 0; k < parent_len; ++k) {
      column_index[prev.Columns(kept[a])[k]].push_back(a);
    }
  }
  run_chunks([&](int64_t a, Chunk* chunk) {
    const int32_t s = kept[a];
    for (int64_t b = a + 1; level == 2 && b < p; ++b) {
      process_pair(s, kept[b], chunk);
    }
    if (level == 2) return;
    std::vector<int32_t>& overlap = chunk->overlap;
    std::vector<int32_t>& touched = chunk->touched;
    overlap.resize(static_cast<size_t>(p));
    touched.clear();
    for (int64_t k = 0; k < parent_len; ++k) {
      const auto& list = column_index[prev.Columns(s)[k]];
      // Only count positions after a (upper triangle of S S^T).
      for (auto it = std::upper_bound(list.begin(), list.end(), a);
           it != list.end(); ++it) {
        if (overlap[*it]++ == 0) touched.push_back(*it);
      }
    }
    for (int32_t b : touched) {
      if (overlap[b] == level - 2) process_pair(s, kept[b], chunk);
      overlap[b] = 0;
    }
  });
  if (stats.stop != StopReason::kNone) return out;
  size_t total = 0;
  for (const Chunk& chunk : chunks) total += chunk.records.size();
  // The merged buffer and its sort scratch.
  const MemoryCharge charge(2 * static_cast<int64_t>(total * sizeof(int32_t)));
  std::vector<int32_t> records;
  records.reserve(total);
  for (Chunk& chunk : chunks) {
    records.insert(records.end(), chunk.records.begin(), chunk.records.end());
    chunk = Chunk();
  }

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

  // Final Equation 9 pruning.
  std::vector<int64_t> columns(static_cast<size_t>(level));
  auto finalize = [&](const int32_t* key, const ParentBounds& bounds, int np) {
    if (fails_forever(bounds) || (config.prune_parents && np != level)) {
      ++stats.candidate_rejected;
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
  report();
  return out;
}

}  // namespace sliceline::core
