// Suffix-item projections: the unit of top-level mining work in RP-growth.
//
// After the RP-tree is built, the mining work for each candidate suffix
// item ai is fully determined by ai's conditional pattern base — the
// prefix paths of ai's nodes together with the accumulated ts-lists of
// their subtrees (what Algorithm 4's bottom-up loop materializes
// incrementally via ts-list push-up, Lemma 3). Mining a projection with
// the standard push-up recursion yields exactly the patterns that loop
// finds for that suffix item.
//
// Projection model. Push-up only appends each child's accumulated list to
// its parent's, deepest rank first, so a node's accumulation is its own
// ts-list followed by its children's accumulations in descending child
// rank. TsPreorderLayout lays every ts-list out once, in that preorder,
// in one flat slab: each node's accumulation is then the contiguous span
// of its subtree. ProjectRank reads one rank's base straight off those
// spans without touching the tree, so projections are built on the
// workers that mine them, from one shared const tree — no clone and no
// serial sweep. A projection owns copies of its paths, so it shares no
// storage with the tree, the layout or other projections.
//
// Determinism: each span is element for element the list the consuming
// sweep (collect a rank, PushUpAndRemove, next rank) would hold, so every
// path, every run split and every TS^item merge — and with them the
// merge counters — equal the consuming sweep's. The layout is a function
// of the node-link chains and ranks only (never of sibling-list order,
// which the parallel tree build's fold permutes).

#ifndef RPM_CORE_PROJECTION_H_
#define RPM_CORE_PROJECTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "rpm/core/rp_tree.h"
#include "rpm/core/ts_merge.h"
#include "rpm/timeseries/types.h"

namespace rpm {

/// Every ts-list of an unmined tree in preorder (children by descending
/// rank), so that each node's push-up accumulation is one contiguous span.
/// Built in two chain passes: bottom-up subtree sizes, then top-down
/// offsets (each parent hands out its span from the end, lowest-rank child
/// last). O(nodes + timestamps); the tree must outlive the layout and stay
/// unmutated while it is read. Immutable after construction, so any number
/// of threads may read one layout concurrently.
class TsPreorderLayout {
 public:
  explicit TsPreorderLayout(const TsPrefixTree& tree);

  /// The timestamps `node` holds once every deeper rank has been pushed up.
  std::span<const Timestamp> SpanOf(const TsPrefixTree::Node& node) const {
    return {slab_.data() + begin_[node.seq], size_[node.seq]};
  }

  /// |TS^item| of the item at `rank`: the sum of its nodes' span lengths.
  size_t RankTimestampCount(size_t rank) const {
    return rank_timestamps_[rank];
  }

  /// Bytes held (slab plus the per-node offset tables).
  size_t ApproxBytes() const {
    return slab_.size() * sizeof(Timestamp) +
           (begin_.size() + size_.size() + rank_timestamps_.size()) *
               sizeof(size_t);
  }

 private:
  TimestampList slab_;
  std::vector<size_t> begin_;  ///< Span offset, by Node::seq.
  std::vector<size_t> size_;   ///< Span length, by Node::seq.
  std::vector<size_t> rank_timestamps_;
};

/// One element of a conditional pattern base: offsets into the owning
/// SuffixProjection's flat slabs (read them through RanksOf / TsOf).
struct ProjectedPath {
  uint32_t ranks_begin = 0;
  uint32_t ranks_len = 0;
  size_t ts_begin = 0;
  size_t ts_len = 0;
};

/// The independent mining subproblem of one suffix item.
struct SuffixProjection {
  /// Rank of the suffix item in the parent tree's order.
  uint32_t rank = 0;
  /// Conditional pattern base of the suffix item, in node-link order.
  std::vector<ProjectedPath> paths;
  /// Ancestor ranks of all paths, each path ascending (root side first),
  /// excluding the suffix rank itself.
  std::vector<uint32_t> ranks;
  /// Accumulated ts-lists of all paths' nodes, each a concatenation of
  /// sorted runs (not globally sorted).
  TimestampList ts;
  /// TS^{item}: sorted union of all path ts-lists.
  TimestampList ts_beta;

  std::span<const uint32_t> RanksOf(const ProjectedPath& path) const {
    return {ranks.data() + path.ranks_begin, path.ranks_len};
  }
  std::span<const Timestamp> TsOf(const ProjectedPath& path) const {
    return {ts.data() + path.ts_begin, path.ts_len};
  }

  /// Bytes of the projection's contents (what a budget tracks while it is
  /// live).
  size_t ApproxBytes() const {
    return paths.size() * sizeof(ProjectedPath) +
           ranks.size() * sizeof(uint32_t) +
           (ts.size() + ts_beta.size()) * sizeof(Timestamp);
  }
};

/// Reusable buffers of ProjectRank (one per worker).
struct ProjectionScratch {
  std::vector<TsRun> runs;  ///< TS^item's runs, one split per path.
  MergeScratch merge;
};

/// Projects the conditional pattern base of `rank` out of `tree` into
/// *out (its buffers are reused), reading the accumulated ts-lists from
/// `layout` (built over `tree`) — `tree` is not modified. TS^item is
/// assembled with the run-aware merge kernel, counted into *counters.
/// Returns false when the rank holds no timestamps (no subproblem).
bool ProjectRank(const TsPrefixTree& tree, const TsPreorderLayout& layout,
                 size_t rank, SuffixProjection* out,
                 ProjectionScratch* scratch, MergeCounters* counters);

/// Decomposes `tree` into one projection per suffix rank that has
/// timestamps, in bottom-up (descending-rank) order — Algorithm 4's
/// processing order — via ProjectRank over one layout, then consumes the
/// tree: only its rank->item mapping remains usable afterwards. When
/// `counters` is non-null the merge kernel's work is accumulated there.
std::vector<SuffixProjection> ProjectSuffixItems(
    TsPrefixTree* tree, MergeCounters* counters = nullptr);

}  // namespace rpm

#endif  // RPM_CORE_PROJECTION_H_
