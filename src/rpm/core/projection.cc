#include "rpm/core/projection.h"

#include <algorithm>

namespace rpm {
namespace {

using Node = TsPrefixTree::Node;

constexpr uint32_t kRootSeq = 0;  // See Node::seq.

}  // namespace

TsPreorderLayout::TsPreorderLayout(const TsPrefixTree& tree)
    : begin_(tree.NodeSeqBound(), 0),
      size_(tree.NodeSeqBound(), 0),
      rank_timestamps_(tree.num_ranks(), 0) {
  // Pass 1, bottom-up: subtree sizes. A child's rank is strictly above its
  // parent's, so walking the chains in descending rank completes every
  // node's size before adding it to its parent's; the root ends up with
  // the slab's total.
  for (size_t rank = tree.num_ranks(); rank-- > 0;) {
    for (const Node* n = tree.HeadOfRank(rank); n != nullptr;
         n = n->next_link) {
      size_[n->seq] += n->ts_list.size();
      size_[n->parent->seq] += size_[n->seq];
    }
  }
  slab_.resize(size_[kRootSeq]);

  // Pass 2, top-down: offsets. Ascending rank places every parent before
  // its children. Each parent hands out its span from the end, so the
  // children (visited in ascending rank) land after its own list in
  // descending rank — the push-up order.
  std::vector<size_t> cursor(size_.size(), 0);  // Free end of each span.
  cursor[kRootSeq] = size_[kRootSeq];
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    for (const Node* n = tree.HeadOfRank(rank); n != nullptr;
         n = n->next_link) {
      const uint32_t seq = n->seq;
      size_t& parent_cursor = cursor[n->parent->seq];
      parent_cursor -= size_[seq];
      begin_[seq] = parent_cursor;
      cursor[seq] = begin_[seq] + size_[seq];
      std::copy(n->ts_list.begin(), n->ts_list.end(),
                slab_.begin() + static_cast<std::ptrdiff_t>(begin_[seq]));
      rank_timestamps_[rank] += size_[seq];
    }
  }
}

bool ProjectRank(const TsPrefixTree& tree, const TsPreorderLayout& layout,
                 size_t rank, SuffixProjection* out,
                 ProjectionScratch* scratch, MergeCounters* counters) {
  out->rank = static_cast<uint32_t>(rank);
  out->paths.clear();
  out->ranks.clear();
  out->ts.clear();
  out->ts_beta.clear();
  if (layout.RankTimestampCount(rank) == 0) return false;
  out->ts.reserve(layout.RankTimestampCount(rank));
  for (const Node* n = tree.HeadOfRank(rank); n != nullptr;
       n = n->next_link) {
    const size_t ranks_begin = out->ranks.size();
    for (const Node* a = n->parent; a->parent != nullptr; a = a->parent) {
      out->ranks.push_back(a->rank);
    }
    std::reverse(out->ranks.begin() + static_cast<std::ptrdiff_t>(ranks_begin),
                 out->ranks.end());
    const std::span<const Timestamp> ts = layout.SpanOf(*n);
    // Same skip as the consuming sweep: a root child with no timestamps
    // contributes nothing.
    if (ts.empty() && out->ranks.size() == ranks_begin) continue;
    out->paths.push_back({static_cast<uint32_t>(ranks_begin),
                          static_cast<uint32_t>(out->ranks.size() -
                                                ranks_begin),
                          out->ts.size(), ts.size()});
    out->ts.insert(out->ts.end(), ts.begin(), ts.end());
  }
  // Split per path, as the sequential miner does per node.
  scratch->runs.clear();
  for (const ProjectedPath& path : out->paths) {
    AppendSortedRuns(out->TsOf(path), &scratch->runs);
  }
  MergeSortedRuns(scratch->runs.data(), scratch->runs.size(), &out->ts_beta,
                  &scratch->merge, counters);
  return true;
}

std::vector<SuffixProjection> ProjectSuffixItems(TsPrefixTree* tree,
                                                 MergeCounters* counters) {
  MergeCounters local_counters;
  if (counters == nullptr) counters = &local_counters;
  std::vector<SuffixProjection> projections;
  {
    const TsPreorderLayout layout(*tree);
    ProjectionScratch scratch;
    for (size_t rank = tree->num_ranks(); rank-- > 0;) {
      SuffixProjection projection;
      if (ProjectRank(*tree, layout, rank, &projection, &scratch, counters)) {
        projections.push_back(std::move(projection));
      }
    }
  }
  *tree = TsPrefixTree(tree->items_by_rank());  // Consumed, like mining.
  return projections;
}

}  // namespace rpm
