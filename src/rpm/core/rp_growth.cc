#include "rpm/core/rp_growth.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

#include "rpm/common/failpoint.h"
#include "rpm/common/logging.h"
#include "rpm/common/stopwatch.h"
#include "rpm/core/measures.h"
#include "rpm/core/projection.h"
#include "rpm/core/rp_tree.h"
#include "rpm/core/thread_pool.h"
#include "rpm/core/ts_merge.h"

namespace rpm {
namespace {

/// One (prefix path, ts-list) element of a conditional pattern base. The
/// ancestor ranks live in the owning frame's flat rank storage (no
/// per-path heap allocation); the ts-list is owned by the tree or a
/// projection and is a concatenation of sorted runs.
struct PathRef {
  uint32_t ranks_begin = 0;  // Offset into the frame's rank storage.
  uint32_t ranks_len = 0;
  std::span<const Timestamp> ts;
};

/// Per-recursion-level scratch. Frames are pooled by depth and reused
/// across every subproblem mined at that depth, so after warm-up a whole
/// mining run performs no per-level allocations. A frame's buffers stay
/// live while deeper levels recurse (paths/rank_storage/ts_beta are read
/// by the level's own MineCollected tail), which is why frames are pooled
/// per depth rather than shared.
struct Frame {
  // Conditional-pattern-base collection (ProcessRank / MineProjection):
  std::vector<PathRef> paths;
  std::vector<uint32_t> rank_storage;   ///< Flat ancestor-rank slab.
  std::vector<TsRun> beta_runs;         ///< Run descriptors for TS^beta.
  TimestampList ts_beta;                ///< Merged TS^beta slab.
  std::vector<PeriodicInterval> intervals;  ///< Fused-gate output.
  // Conditional-tree construction (BuildConditionalAndRecurse); acc and
  // runs_by_rank are indexed by parent rank and grow-only, with only the
  // touched entries cleared after use.
  std::vector<TimestampList> acc;           ///< Merged TS^{beta+item}.
  std::vector<std::vector<TsRun>> runs_by_rank;
  std::vector<TsRun> path_runs;         ///< One path's run split.
  std::vector<uint32_t> touched;
  std::vector<uint32_t> kept;
  std::vector<uint32_t> new_rank_of;
  std::vector<uint32_t> mapped;

  size_t ByteFootprint() const {
    size_t bytes = paths.capacity() * sizeof(PathRef) +
                   rank_storage.capacity() * sizeof(uint32_t) +
                   beta_runs.capacity() * sizeof(TsRun) +
                   ts_beta.capacity() * sizeof(Timestamp) +
                   intervals.capacity() * sizeof(PeriodicInterval) +
                   path_runs.capacity() * sizeof(TsRun) +
                   (touched.capacity() + kept.capacity() +
                    new_rank_of.capacity() + mapped.capacity()) *
                       sizeof(uint32_t);
    bytes += acc.capacity() * sizeof(TimestampList);
    for (const TimestampList& slab : acc) {
      bytes += slab.capacity() * sizeof(Timestamp);
    }
    bytes += runs_by_rank.capacity() * sizeof(std::vector<TsRun>);
    for (const std::vector<TsRun>& runs : runs_by_rank) {
      bytes += runs.capacity() * sizeof(TsRun);
    }
    return bytes;
  }
};

/// Reusable per-miner (per-worker) scratch pool: one frame per recursion
/// depth plus the shared merge-kernel buffers and counters. Not
/// thread-safe — the mining loop allocates one pool per worker.
class MinerScratch {
 public:
  /// Frame for recursion depth `depth`; stable address across later calls
  /// (frames are held by unique_ptr so growing the pool never moves them).
  Frame& FrameAt(size_t depth) {
    while (frames_.size() <= depth) {
      frames_.push_back(std::make_unique<Frame>());
    }
    return *frames_[depth];
  }

  /// Bytes currently retained across all frames, merge buffers and the
  /// mask column. Scratch capacities only grow during a run, so sampling
  /// after mining yields the run's peak.
  size_t ByteFootprint() const {
    size_t bytes = merge.ByteFootprint() + ts_block.ByteFootprint();
    for (const std::unique_ptr<Frame>& frame : frames_) {
      bytes += frame->ByteFootprint();
    }
    return bytes;
  }

  MergeScratch merge;
  MergeCounters counters;
  TsBlockScratch ts_block;  ///< Break-mask column (core/ts_block.h).
  GateCounters gate;        ///< Gate-scan volume accumulated here.

 private:
  std::vector<std::unique_ptr<Frame>> frames_;
};

class Miner {
 public:
  Miner(const RpParams& params, const RpGrowthOptions& options,
        RpGrowthResult* result, MinerScratch* scratch)
      : params_(params),
        options_(options),
        result_(result),
        scratch_(scratch),
        checkpoint_(options.budget) {}

  /// How one governed top-level subproblem ended. Truncation is
  /// all-or-nothing per subproblem: anything but kComplete means the
  /// subproblem's patterns must be dropped from the committed result.
  enum class Outcome {
    kComplete,  ///< Mined fully; eligible to commit.
    kOverflow,  ///< Emitted more patterns than the cap headroom allows.
    kHardStop,  ///< Deadline / memory / cancellation checkpoint fired.
  };

  /// Mines one top-level projection: the independent subproblem of a
  /// single suffix item, collected by ProjectRank (which also merged
  /// ts_beta, so no merge happens here). The frame's paths view the
  /// projection, which must outlive the call.
  Outcome MineProjection(const std::vector<ItemId>& items_by_rank,
                         const SuffixProjection& projection,
                         uint64_t cap_headroom) {
    BeginSubproblem(cap_headroom);
    Frame& frame = scratch_->FrameAt(depth_);
    frame.paths.clear();
    frame.rank_storage.assign(projection.ranks.begin(),
                              projection.ranks.end());
    for (const ProjectedPath& p : projection.paths) {
      if (ShouldStop()) return CurrentOutcome();
      frame.paths.push_back({p.ranks_begin, p.ranks_len, projection.TsOf(p)});
    }
    Itemset suffix;
    MineCollected(items_by_rank, frame, projection.ts_beta,
                  items_by_rank[projection.rank], &suffix);
    return CurrentOutcome();
  }

  /// Patterns emitted by the most recently mined subproblem (what the
  /// commit walk adds up for the max-patterns arithmetic).
  uint64_t subproblem_emitted() const { return subproblem_emitted_; }

 private:
  void BeginSubproblem(uint64_t cap_headroom) {
    aborted_ = false;
    overflowed_ = false;
    subproblem_emitted_ = 0;
    cap_headroom_ = cap_headroom;
  }

  Outcome CurrentOutcome() const {
    if (aborted_) return Outcome::kHardStop;
    if (overflowed_) return Outcome::kOverflow;
    return Outcome::kComplete;
  }

  /// Budget checkpoint; sticky per subproblem. True = unwind now.
  bool ShouldStop() {
    if (aborted_ || overflowed_) return true;
    if (checkpoint_.Check()) {
      aborted_ = true;
      return true;
    }
    return false;
  }

  /// Algorithm 4 over one conditional tree. `suffix` holds the items of
  /// alpha; the tree is consumed (ts-lists pushed up, nodes detached) in
  /// the process.
  void MineTree(TsPrefixTree* tree, Itemset* suffix) {
    for (size_t rank = tree->num_ranks(); rank-- > 0;) {
      if (ShouldStop()) return;
      if (tree->HeadOfRank(rank) != nullptr) {
        ProcessRank(tree, rank, suffix);
        tree->PushUpAndRemove(rank);
      }
    }
  }
  /// True when beta (with the given full TS^beta) may still lead to
  /// recurring patterns — the paper's candidate test, or the weaker
  /// support-only gate in the ablation mode.
  bool PassesGate(const TimestampList& sorted_ts) const {
    if (options_.pruning == PruningMode::kSupportOnly) {
      return sorted_ts.size() >= params_.min_ps * params_.min_rec;
    }
    return ComputeRecurrenceUpperBound(sorted_ts, params_,
                                       &scratch_->ts_block,
                                       &scratch_->gate) >= params_.min_rec;
  }

  void ProcessRank(TsPrefixTree* tree, size_t rank, Itemset* suffix) {
    // Collect the conditional pattern base of ai and TS^beta's sorted runs
    // in one walk. Ancestor ranks go into the frame's flat slab (the
    // node-link walk reuses one path buffer; copying it into the slab is
    // the only per-node cost — no per-path vector is allocated).
    Frame& frame = scratch_->FrameAt(depth_);
    frame.paths.clear();
    frame.rank_storage.clear();
    frame.beta_runs.clear();
    tree->ForEachNodeOfRankWhile(
        rank, [&](const std::vector<uint32_t>& path, const TimestampList& ts) {
          if (ShouldStop()) return false;
          if (ts.empty() && path.empty()) return true;
          frame.paths.push_back(
              {static_cast<uint32_t>(frame.rank_storage.size()),
               static_cast<uint32_t>(path.size()), ts});
          frame.rank_storage.insert(frame.rank_storage.end(), path.begin(),
                                    path.end());
          AppendSortedRuns(ts, &frame.beta_runs);
          return true;
        });
    if (aborted_ || overflowed_) return;  // Abandoned mid-walk.
    if (frame.beta_runs.empty()) return;  // No timestamps at this rank.
    MergeSortedRuns(frame.beta_runs.data(), frame.beta_runs.size(),
                    &frame.ts_beta, &scratch_->merge, &scratch_->counters);
    MineCollected(tree->items_by_rank(), frame, frame.ts_beta,
                  tree->ItemAtRank(rank), suffix);
  }

  /// Common tail of ProcessRank / MineProjection: the fused gate +
  /// getRecurrence (Algorithm 5) and the conditional recursion for suffix
  /// item `item`. `frame` is this depth's frame holding the conditional
  /// pattern base; `ts_beta` is sorted and nonempty.
  void MineCollected(const std::vector<ItemId>& items_by_rank, Frame& frame,
                     const TimestampList& ts_beta, ItemId item,
                     Itemset* suffix) {
    if (ShouldStop()) return;
    ++result_->stats.patterns_examined;

    // One scan decides the gate AND yields IPI^beta for getRecurrence —
    // previously the Erec gate scanned ts_beta and FindInterestingIntervals
    // rescanned every surviving list.
    bool gate_passed;
    if (options_.pruning == PruningMode::kSupportOnly) {
      gate_passed = ts_beta.size() >= params_.min_ps * params_.min_rec;
      if (gate_passed) {
        FindInterestingIntervalsInto(ts_beta, params_, &frame.intervals);
      }
    } else {
      gate_passed = ComputeGateAndIntervals(ts_beta, params_,
                                            &frame.intervals,
                                            &scratch_->ts_block,
                                            &scratch_->gate)
                        .passes;
    }
    if (!gate_passed) return;

    suffix->push_back(item);

    // getRecurrence (Algorithm 5): is beta itself recurring?
    if (frame.intervals.size() >= params_.min_rec) {
      RecurringPattern pattern;
      pattern.items = *suffix;
      std::sort(pattern.items.begin(), pattern.items.end());
      pattern.support = ts_beta.size();
      pattern.intervals.assign(frame.intervals.begin(),
                               frame.intervals.end());
      ++result_->stats.patterns_emitted;
      ++subproblem_emitted_;
      // Past the cap headroom this subproblem is dropped no matter what
      // else it finds — stop paying for it.
      if (subproblem_emitted_ > cap_headroom_) overflowed_ = true;
      if (options_.sink) options_.sink(pattern);
      if (options_.store_patterns) {
        result_->patterns.push_back(std::move(pattern));
      }
    }

    const bool depth_ok = options_.max_pattern_length == 0 ||
                          suffix->size() < options_.max_pattern_length;
    if (depth_ok && !overflowed_) {
      BuildConditionalAndRecurse(items_by_rank, frame, suffix);
    }
    suffix->pop_back();
  }

  void BuildConditionalAndRecurse(const std::vector<ItemId>& items_by_rank,
                                  Frame& frame, Itemset* suffix) {
    if (ShouldStop()) return;
    const size_t nranks = items_by_rank.size();
    if (frame.acc.size() < nranks) frame.acc.resize(nranks);
    if (frame.runs_by_rank.size() < nranks) frame.runs_by_rank.resize(nranks);

    // Map every node's ts-list onto all items of its path ("temporary
    // array, one for each item" in Sec. 4.2.3) — as run descriptors, split
    // once per path and shared by all of the path's ranks, so
    // runs_by_rank[r] describes TS^{beta + item_at_rank_r}.
    frame.touched.clear();
    for (const PathRef& pr : frame.paths) {
      if (pr.ts.empty()) continue;
      frame.path_runs.clear();
      AppendSortedRuns(pr.ts, &frame.path_runs);
      const uint32_t* path_ranks = frame.rank_storage.data() + pr.ranks_begin;
      for (uint32_t k = 0; k < pr.ranks_len; ++k) {
        const uint32_t r = path_ranks[k];
        if (frame.runs_by_rank[r].empty()) frame.touched.push_back(r);
        frame.runs_by_rank[r].insert(frame.runs_by_rank[r].end(),
                                     frame.path_runs.begin(),
                                     frame.path_runs.end());
      }
    }
    if (frame.touched.empty()) return;

    // Merge each touched item's runs and keep items that can still extend
    // beta (conditional Erec gate). On a stop, the remaining touched
    // entries still need their runs cleared — the grow-only scratch
    // invariant ("runs_by_rank[r] empty between subproblems") must hold
    // for whatever this worker mines next.
    frame.kept.clear();
    bool stopped = false;
    for (uint32_t r : frame.touched) {
      if (!stopped && ShouldStop()) stopped = true;
      if (stopped) {
        frame.runs_by_rank[r].clear();
        continue;
      }
      MergeSortedRuns(frame.runs_by_rank[r].data(),
                      frame.runs_by_rank[r].size(), &frame.acc[r],
                      &scratch_->merge, &scratch_->counters);
      frame.runs_by_rank[r].clear();
      if (PassesGate(frame.acc[r])) frame.kept.push_back(r);
    }
    if (stopped || frame.kept.empty()) {
      for (uint32_t r : frame.touched) frame.acc[r].clear();
      return;
    }

    // Conditional item order: support-descending, ties by parent order.
    std::sort(frame.kept.begin(), frame.kept.end(),
              [&frame](uint32_t a, uint32_t b) {
                return frame.acc[a].size() != frame.acc[b].size()
                           ? frame.acc[a].size() > frame.acc[b].size()
                           : a < b;
              });
    frame.new_rank_of.assign(nranks, kNotCandidate);
    std::vector<ItemId> cond_items_by_rank(frame.kept.size());
    for (uint32_t nr = 0; nr < frame.kept.size(); ++nr) {
      frame.new_rank_of[frame.kept[nr]] = nr;
      cond_items_by_rank[nr] = items_by_rank[frame.kept[nr]];
    }
    // The merged accumulators are fully consumed (gate + ordering); release
    // their contents so the slabs only pin their high-water capacity.
    for (uint32_t r : frame.touched) frame.acc[r].clear();

    TsPrefixTree cond(std::move(cond_items_by_rank));
    for (const PathRef& pr : frame.paths) {
      frame.mapped.clear();
      const uint32_t* path_ranks = frame.rank_storage.data() + pr.ranks_begin;
      for (uint32_t k = 0; k < pr.ranks_len; ++k) {
        const uint32_t nr = frame.new_rank_of[path_ranks[k]];
        if (nr != kNotCandidate) frame.mapped.push_back(nr);
      }
      if (frame.mapped.empty()) continue;
      std::sort(frame.mapped.begin(), frame.mapped.end());
      cond.InsertPath(frame.mapped, pr.ts);
    }
    ++result_->stats.conditional_trees;
    QueryBudget* budget = checkpoint_.budget();
    const size_t cond_bytes = budget != nullptr ? cond.ApproxBytes() : 0;
    if (budget != nullptr) {
      budget->AddNodes(cond.NodeCount());
      budget->AddTrackedBytes(cond_bytes);  // May trip the memory stop.
    }
    if (!cond.empty()) {
      ++depth_;
      MineTree(&cond, suffix);
      --depth_;
    }
    if (budget != nullptr) budget->ReleaseTrackedBytes(cond_bytes);
  }

  const RpParams& params_;
  const RpGrowthOptions& options_;
  RpGrowthResult* result_;
  MinerScratch* scratch_;
  BudgetCheckpointer checkpoint_;
  size_t depth_ = 0;  ///< Current recursion depth == frame index.
  // Per-subproblem governance state (reset by BeginSubproblem):
  bool aborted_ = false;     ///< A hard budget stop fired.
  bool overflowed_ = false;  ///< Emitted past the cap headroom.
  uint64_t subproblem_emitted_ = 0;
  uint64_t cap_headroom_ = std::numeric_limits<uint64_t>::max();
};

/// Folds a scratch pool's kernel counters into the run's stats.
/// scratch_bytes_peak takes the max (pools are per worker, so the peak is
/// the largest single pool); scratch_bytes_total sums the pools, which is
/// the figure comparable across thread counts.
void FoldScratchStats(const MinerScratch& scratch, RpGrowthStats* stats) {
  stats->merge_invocations += scratch.counters.merge_invocations;
  stats->runs_merged += scratch.counters.runs_merged;
  stats->timestamps_merged += scratch.counters.timestamps_merged;
  stats->gate_lists_scanned += scratch.gate.lists_scanned;
  stats->gate_gaps_scanned += scratch.gate.gaps_scanned;
  stats->gate_gaps_simd += scratch.gate.gaps_simd;
  const size_t bytes = scratch.ByteFootprint();
  stats->scratch_bytes_total += bytes;
  stats->scratch_bytes_peak = std::max(stats->scratch_bytes_peak, bytes);
}

/// The top-level mining loop (Algorithm 4's outer loop) at every thread
/// count, over a shared, unmodified tree: lay its ts-lists out in preorder
/// once (TsPreorderLayout), then let each worker project the suffix item
/// it mines straight off that layout (ProjectRank) and mine the
/// projection, keeping per-subproblem results for the commit. At one
/// worker ParallelFor runs every subproblem inline on the calling thread.
/// Counters are schedule-invariant because every subproblem — its TS^item
/// merge included — is counted once, on whichever worker runs it.
///
/// Subproblems run heaviest first (LPT), not bottom-up, so `sink` sees
/// them in that order even at one worker. Budget governance commits the
/// longest prefix (in bottom-up, descending-rank order) of subproblems
/// that completed and fit under the max-patterns cap; everything at and
/// after the first incomplete or cap-crossing subproblem is dropped,
/// including completed-but-later subproblems, so a max_patterns cut lands
/// on the identical subproblem at every thread count. A capped run may
/// therefore mine subproblems past the cut before dropping them. Tracked
/// bytes are the layout plus each worker's one live projection.
void MineParallel(const TsPrefixTree& tree, const RpParams& params,
                  const RpGrowthOptions& options, size_t threads,
                  RpGrowthResult* result) {
  QueryBudget* budget = options.budget;
  Stopwatch layout_watch;
  const TsPreorderLayout layout(tree, threads);
  result->stats.layout_seconds = layout_watch.ElapsedSeconds();
  const size_t layout_bytes = budget != nullptr ? layout.ApproxBytes() : 0;
  if (budget != nullptr) budget->AddTrackedBytes(layout_bytes);

  // One subproblem per rank holding timestamps, in bottom-up order.
  std::vector<size_t> ranks;
  for (size_t rank = tree.num_ranks(); rank-- > 0;) {
    if (layout.RankTimestampCount(rank) > 0) ranks.push_back(rank);
  }

  // Heaviest subproblems first (LPT scheduling): with dynamic work
  // pulling this bounds the makespan tail by the single largest
  // subproblem. |TS^item| is the cost proxy; ties keep bottom-up order,
  // so the schedule is deterministic.
  std::vector<size_t> order(ranks.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return layout.RankTimestampCount(ranks[a]) >
           layout.RankTimestampCount(ranks[b]);
  });

  // Workers share one serialized sink; discovery order across workers is
  // nondeterministic, but calls never overlap.
  RpGrowthOptions worker_options = options;
  std::mutex sink_mutex;
  if (options.sink) {
    worker_options.sink = [&](const RecurringPattern& pattern) {
      std::lock_guard<std::mutex> lock(sink_mutex);
      options.sink(pattern);
    };
  }

  const uint64_t cap = budget != nullptr ? budget->limits().max_patterns : 0;
  // A worker cannot know the committed total while mining out of order,
  // but a subproblem whose own count exceeds the whole cap is doomed
  // regardless of it — that is the only early-abort the cap allows
  // without perturbing the deterministic cut.
  const uint64_t worker_headroom =
      cap == 0 ? std::numeric_limits<uint64_t>::max() : cap;

  /// Per-subproblem (not per-worker) result so the commit walk below can
  /// keep the exact bottom-up prefix of completed subproblems.
  struct Subproblem {
    RpGrowthResult local;
    Miner::Outcome outcome = Miner::Outcome::kHardStop;  // = not dispatched.
    uint64_t emitted = 0;
  };
  std::vector<Subproblem> subs(ranks.size());

  /// Per-worker state; the projection buffer is reused, so each worker
  /// holds at most one live projection.
  struct Worker {
    MinerScratch scratch;
    ProjectionScratch projection_scratch;
    SuffixProjection projection;
    double busy_seconds = 0.0;
  };
  const size_t workers = std::min(threads, ranks.size());
  std::vector<Worker> state(std::max<size_t>(workers, 1));
  const std::vector<ItemId>& items_by_rank = tree.items_by_rank();
  std::function<bool()> should_stop;
  if (budget != nullptr) {
    should_stop = [budget] { return budget->stop_requested(); };
  }
  const size_t participants = ParallelFor(
      ranks.size(), workers,
      [&](size_t worker, size_t i) {
        if (FailpointTriggered("worker.task")) {
          throw std::runtime_error("injected worker-task fault");
        }
        Stopwatch stopwatch;
        Worker& w = state[worker];
        Subproblem& sub = subs[order[i]];
        ProjectRank(tree, layout, ranks[order[i]], &w.projection,
                    &w.projection_scratch, &w.scratch.counters);
        const size_t projection_bytes =
            budget != nullptr ? w.projection.ApproxBytes() : 0;
        if (budget != nullptr) budget->AddTrackedBytes(projection_bytes);
        Miner miner(params, worker_options, &sub.local, &w.scratch);
        sub.outcome =
            miner.MineProjection(items_by_rank, w.projection, worker_headroom);
        sub.emitted = miner.subproblem_emitted();
        if (budget != nullptr) budget->ReleaseTrackedBytes(projection_bytes);
        w.busy_seconds += stopwatch.ElapsedSeconds();
      },
      should_stop);

  // Commit walk: keep subproblems in bottom-up order until the first one
  // that is incomplete or would cross the max-patterns cap.
  uint64_t committed = 0;
  size_t cut = subs.size();
  bool cap_cut = false;
  for (size_t p = 0; p < subs.size(); ++p) {
    const Subproblem& sub = subs[p];
    if (sub.outcome == Miner::Outcome::kHardStop) {
      cut = p;
      break;
    }
    if (sub.outcome == Miner::Outcome::kOverflow ||
        (cap != 0 && committed + sub.emitted > cap)) {
      cut = p;
      cap_cut = true;
      break;
    }
    committed += sub.emitted;
  }
  for (size_t p = 0; p < cut; ++p) {
    result->stats.patterns_emitted += subs[p].local.stats.patterns_emitted;
    result->patterns.insert(
        result->patterns.end(),
        std::make_move_iterator(subs[p].local.patterns.begin()),
        std::make_move_iterator(subs[p].local.patterns.end()));
  }
  if (cut < subs.size()) {
    result->truncated = true;
    if (cap_cut && budget != nullptr && !budget->hard_stopped()) {
      budget->RequestStop(StopReason::kPatternCap);
    }
  }
  // Exploration counters keep every attempted subproblem, committed or
  // dropped — they account work done, not results kept.
  for (const Subproblem& sub : subs) {
    result->stats.conditional_trees += sub.local.stats.conditional_trees;
    result->stats.patterns_examined += sub.local.stats.patterns_examined;
  }
  for (const Worker& w : state) {
    result->stats.mine_cpu_seconds += w.busy_seconds;
    FoldScratchStats(w.scratch, &result->stats);
  }
  if (budget != nullptr) {
    budget->AddPatterns(committed);
    budget->ReleaseTrackedBytes(layout_bytes);
  }
  result->stats.threads_used = std::max<size_t>(participants, size_t{1});
}

}  // namespace

PreparedMining PrepareMining(const TransactionDatabase& db,
                             const RpParams& params, PruningMode pruning,
                             QueryBudget* budget, size_t tree_threads) {
  RPM_CHECK(params.Validate().ok()) << params.ToString();
  PreparedMining prepared;
  prepared.params = params;
  prepared.pruning = pruning;

  // Pass 1: RP-list (Algorithm 1).
  Stopwatch phase;
  prepared.list = BuildRpList(db, params, budget);
  prepared.num_items = prepared.list.entries().size();
  prepared.list_seconds = phase.ElapsedSeconds();
  if (budget != nullptr && budget->hard_stopped()) {
    return prepared;  // Aborted mid-scan; the caller must discard.
  }

  // Candidate item order per pruning mode.
  if (pruning == PruningMode::kErec) {
    prepared.items_by_rank.reserve(prepared.list.candidates().size());
    for (const RpListEntry& e : prepared.list.candidates()) {
      prepared.items_by_rank.push_back(e.item);
    }
  } else {
    std::vector<RpListEntry> entries = prepared.list.entries();
    const uint64_t min_support = params.min_ps * params.min_rec;
    std::erase_if(entries, [&](const RpListEntry& e) {
      return e.support < min_support;
    });
    std::sort(entries.begin(), entries.end(),
              [](const RpListEntry& a, const RpListEntry& b) {
                return a.support != b.support ? a.support > b.support
                                              : a.item < b.item;
              });
    prepared.items_by_rank.reserve(entries.size());
    for (const RpListEntry& e : entries) {
      prepared.items_by_rank.push_back(e.item);
    }
  }
  prepared.num_candidate_items = prepared.items_by_rank.size();

  // Pass 2: RP-tree (Algorithms 2-3).
  phase.Restart();
  prepared.tree = BuildRankedTree(db, prepared.items_by_rank, budget,
                                  tree_threads, &prepared.tree_build);
  prepared.initial_tree_nodes = prepared.tree.NodeCount();
  prepared.tree_seconds = phase.ElapsedSeconds();
  return prepared;
}

namespace {

/// Don't shard the build below this many transactions per shard: a tiny
/// shard costs more to set up and splice than its build saves. Chosen so
/// sharding engages on the test corpora (>= 512 transactions at two
/// workers) while toy databases stay on one shard.
constexpr size_t kMinTransactionsPerBuildShard = 256;

/// Inserts, in database order, every transaction of `db` whose lowest
/// candidate rank lies in [lo, hi) into `tree` — every transaction when
/// `lowest_rank` is null. Checkpoints the budget per transaction and
/// reports the tree's byte growth, keeping the running total in
/// *reported_bytes so the caller can release it even if an insert throws.
/// When `first_touch` is non-null it maps each new node's seq to the
/// database index of the transaction that created it (Splice's key).
void InsertShard(const TransactionDatabase& db,
                 const std::vector<uint32_t>& rank_of,
                 const std::vector<uint32_t>* lowest_rank, uint32_t lo,
                 uint32_t hi, QueryBudget* budget, TsPrefixTree* tree,
                 std::vector<uint32_t>* first_touch, size_t* reported_bytes) {
  BudgetCheckpointer checkpoint(budget);
  std::vector<uint32_t> ranks;
  const std::vector<Transaction>& transactions = db.transactions();
  for (size_t i = 0; i < transactions.size(); ++i) {
    if (lowest_rank != nullptr &&
        ((*lowest_rank)[i] < lo || (*lowest_rank)[i] >= hi)) {
      continue;
    }
    if (checkpoint.Check()) break;  // Partial build; the caller discards.
    ranks.clear();
    for (ItemId item : transactions[i].items) {
      if (rank_of[item] != kNotCandidate) ranks.push_back(rank_of[item]);
    }
    std::sort(ranks.begin(), ranks.end());
    tree->InsertTransaction(ranks, transactions[i].ts);
    if (first_touch != nullptr) {
      first_touch->resize(tree->NodeSeqBound(), static_cast<uint32_t>(i));
    }
    if (budget != nullptr) {
      const size_t now = tree->ApproxBytes();
      if (now > *reported_bytes) {
        budget->AddTrackedBytes(now - *reported_bytes);  // May trip memory.
        *reported_bytes = now;
      }
    }
  }
}

}  // namespace

TsPrefixTree BuildRankedTree(const TransactionDatabase& db,
                             const std::vector<ItemId>& items_by_rank,
                             QueryBudget* budget, size_t num_threads,
                             TreeBuildStats* stats) {
  std::vector<uint32_t> rank_of(db.ItemUniverseSize(), kNotCandidate);
  for (uint32_t rank = 0; rank < items_by_rank.size(); ++rank) {
    RPM_CHECK(items_by_rank[rank] < rank_of.size() &&
              rank_of[items_by_rank[rank]] == kNotCandidate)
        << "invalid candidate order";
    rank_of[items_by_rank[rank]] = rank;
  }
  if (stats != nullptr) *stats = TreeBuildStats{};
  const size_t num_transactions = db.transactions().size();
  RPM_CHECK(num_transactions <= std::numeric_limits<uint32_t>::max());
  const size_t threads = ResolveThreadCount(num_threads);
  const size_t num_shards = std::min(
      threads,
      std::max<size_t>(1, num_transactions / kMinTransactionsPerBuildShard));
  const uint32_t num_ranks = static_cast<uint32_t>(items_by_rank.size());

  // Root-rank shards: every node below a root child is created only by
  // transactions whose lowest rank is that child's, so shards keyed on
  // the lowest rank build disjoint subtrees. Shard k owns the contiguous
  // rank range [shard_begin[k], shard_begin[k + 1]), cut where the
  // cumulative candidate length of the transactions starting at each rank
  // crosses k / num_shards of the total. Index arithmetic only, so the
  // decomposition is deterministic for a given (db, num_shards).
  std::vector<uint32_t> lowest_rank;
  std::vector<uint32_t> shard_begin(num_shards + 1, num_ranks);
  shard_begin[0] = 0;
  if (num_shards > 1) {
    lowest_rank.assign(num_transactions, kNotCandidate);
    std::vector<uint64_t> weight(num_ranks, 0);
    uint64_t total = 0;
    for (size_t i = 0; i < num_transactions; ++i) {
      uint32_t lowest = kNotCandidate;
      uint64_t length = 0;
      for (ItemId item : db.transactions()[i].items) {
        const uint32_t rank = rank_of[item];
        if (rank == kNotCandidate) continue;
        lowest = std::min(lowest, rank);
        ++length;
      }
      if (length == 0) continue;
      lowest_rank[i] = lowest;
      weight[lowest] += length;
      total += length;
    }
    uint64_t before = 0;  // Weight of the ranks below `rank`.
    size_t shard = 0;
    for (uint32_t rank = 0; rank < num_ranks; ++rank) {
      const size_t owner = std::min<size_t>(
          num_shards - 1, total == 0 ? 0 : before * num_shards / total);
      while (shard < owner) shard_begin[++shard] = rank;
      before += weight[rank];
    }
  }

  std::vector<TsPrefixTree> shards;
  shards.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) shards.emplace_back(items_by_rank);
  std::vector<std::vector<uint32_t>> first_touch(num_shards);
  std::vector<size_t> reported(num_shards, 0);
  const auto release_reported = [&] {
    if (budget == nullptr) return;
    size_t total = 0;
    for (size_t bytes : reported) total += bytes;
    budget->ReleaseTrackedBytes(total);
  };
  std::function<bool()> should_stop;
  if (budget != nullptr) {
    should_stop = [budget] { return budget->stop_requested(); };
  }
  size_t participants = 0;
  try {
    participants = ParallelFor(
        num_shards, num_shards,
        [&](size_t, size_t k) {
          InsertShard(db, rank_of, num_shards > 1 ? &lowest_rank : nullptr,
                      shard_begin[k], shard_begin[k + 1], budget, &shards[k],
                      num_shards > 1 ? &first_touch[k] : nullptr,
                      &reported[k]);
        },
        should_stop);
  } catch (...) {
    release_reported();
    throw;
  }

  // A build stopped inside a shard is spliced all the same; the partial
  // tree is the caller's to discard.
  Stopwatch splice_watch;
  TsPrefixTree tree =
      TsPrefixTree::Splice(std::move(shards), first_touch, threads);
  // Net the build-time accounting back out (the peak was captured); the
  // caller re-tracks the finished tree for its mining phase.
  release_reported();
  if (stats != nullptr) {
    stats->threads_used = std::max<size_t>(participants, 1);
    if (num_shards > 1) {
      stats->partials_merged = num_shards - 1;
      stats->merge_seconds = splice_watch.ElapsedSeconds();
    }
  }
  return tree;
}

namespace {

/// Copies the build-phase stats every MineFromPrepared result reports.
void FoldBuildStats(const PreparedMining& prepared, RpGrowthStats* stats) {
  stats->num_items = prepared.num_items;
  stats->num_candidate_items = prepared.num_candidate_items;
  stats->initial_tree_nodes = prepared.initial_tree_nodes;
  stats->list_seconds = prepared.list_seconds;
  stats->tree_seconds = prepared.tree_seconds;
  stats->tree_build_threads = prepared.tree_build.threads_used;
  stats->tree_partials_merged = prepared.tree_build.partials_merged;
  stats->tree_merge_seconds = prepared.tree_build.merge_seconds;
}

/// Body of both MineFromPrepared entries; `tree` is only read.
RpGrowthResult MinePreparedTree(const PreparedMining& prepared,
                                const TsPrefixTree& tree,
                                const RpParams& params,
                                const RpGrowthOptions& options) {
  RPM_CHECK(params.Validate().ok()) << params.ToString();
  RPM_CHECK(params.period == prepared.params.period &&
            params.max_gap_violations == prepared.params.max_gap_violations &&
            params.min_ps >= prepared.params.min_ps &&
            params.min_rec >= prepared.params.min_rec &&
            options.pruning == prepared.pruning)
      << "query params looser than the prepared build: " << params.ToString()
      << " vs " << prepared.params.ToString();
  RpGrowthResult result;
  Stopwatch total;
  FoldBuildStats(prepared, &result.stats);

  QueryBudget* budget = options.budget;
  if (budget != nullptr) budget->AddNodes(tree.NodeCount());

  // Bottom-up mining (Algorithm 4) over per-suffix-item projections.
  Stopwatch phase;
  MineParallel(tree, params, options, ResolveThreadCount(options.num_threads),
               &result);
  result.stats.mine_seconds = phase.ElapsedSeconds();
  // One worker ran the whole phase on this thread.
  if (result.stats.threads_used == 1) {
    result.stats.mine_cpu_seconds = result.stats.mine_seconds;
  }

  if (budget != nullptr) result.status = budget->status();
  SortPatternsCanonically(&result.patterns);
  result.stats.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace

RpGrowthResult MineFromPrepared(const PreparedMining& prepared,
                                TsPrefixTree tree, const RpParams& params,
                                const RpGrowthOptions& options) {
  return MinePreparedTree(prepared, tree, params, options);
}

RpGrowthResult MineFromPrepared(const PreparedMining& prepared,
                                const RpParams& params,
                                const RpGrowthOptions& options) {
  return MinePreparedTree(prepared, prepared.tree, params, options);
}

RpGrowthResult MineRecurringPatterns(const TransactionDatabase& db,
                                     const RpParams& params,
                                     const RpGrowthOptions& options) {
  Stopwatch total;
  // The tree build parallelizes with the same knob as the mining phase.
  const PreparedMining prepared = PrepareMining(
      db, params, options.pruning, options.budget, options.num_threads);
  if (options.budget != nullptr && options.budget->hard_stopped()) {
    // The build itself was stopped; a partial tree must never be mined
    // (its ts-lists are incomplete, not a subproblem prefix).
    RpGrowthResult result;
    FoldBuildStats(prepared, &result.stats);
    result.status = options.budget->status();
    result.truncated = true;
    result.stats.total_seconds = total.ElapsedSeconds();
    return result;
  }
  RpGrowthResult result = MineFromPrepared(prepared, params, options);
  result.stats.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace rpm
