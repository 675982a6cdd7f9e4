#include "rpm/core/projection.h"

#include <algorithm>

#include "rpm/core/thread_pool.h"

namespace rpm {
namespace {

using Node = TsPrefixTree::Node;

constexpr uint32_t kRootSeq = 0;  // See Node::seq.

/// Don't give a layout worker fewer nodes than this: below it, starting
/// and joining a thread costs more than the nodes it would lay out.
constexpr size_t kMinNodesPerLayoutWorker = 4096;

}  // namespace

TsPreorderLayout::TsPreorderLayout(const TsPrefixTree& tree,
                                   size_t num_threads)
    : begin_(tree.NodeSeqBound(), 0),
      size_(tree.NodeSeqBound(), 0),
      rank_timestamps_(tree.num_ranks(), 0) {
  // One task per root-child subtree, in ascending rank. Subtrees share no
  // node, so tasks write disjoint entries of size_, begin_ and the slab;
  // only the root's entries and the per-rank totals are combined here.
  std::vector<const Node*> subtrees;
  for (const Node* c = tree.root()->first_child; c != nullptr;
       c = c->next_sibling) {
    subtrees.push_back(c);
  }
  const auto by_rank = [](const Node* a, const Node* b) {
    return a->rank < b->rank;
  };
  std::sort(subtrees.begin(), subtrees.end(), by_rank);
  struct Worker {
    std::vector<const Node*> nodes;  ///< A subtree, parents before children.
    std::vector<const Node*> children;
    std::vector<size_t> rank_timestamps;
  };
  std::vector<Worker> workers(std::max<size_t>(
      1, std::min({ResolveThreadCount(num_threads), subtrees.size(),
                   tree.NodeCount() / kMinNodesPerLayoutWorker})));
  for (Worker& w : workers) w.rank_timestamps.assign(tree.num_ranks(), 0);

  // Pass 1: subtree sizes. A level-order listing puts every node after
  // its parent, so walking it backwards completes each node's size before
  // adding it to its parent's.
  ParallelFor(subtrees.size(), workers.size(), [&](size_t worker, size_t i) {
    std::vector<const Node*>& nodes = workers[worker].nodes;
    nodes.assign(1, subtrees[i]);
    for (size_t j = 0; j < nodes.size(); ++j) {
      for (const Node* c = nodes[j]->first_child; c != nullptr;
           c = c->next_sibling) {
        nodes.push_back(c);
      }
    }
    for (size_t j = nodes.size(); j-- > 0;) {
      const Node* n = nodes[j];
      size_[n->seq] += n->ts_list.size();
      if (j > 0) size_[n->parent->seq] += size_[n->seq];
    }
  });

  // The root hands out its span from the end, so the root children
  // (ascending rank) land in descending rank — the push-up order.
  size_t cursor = 0;
  for (const Node* sub : subtrees) cursor += size_[sub->seq];
  size_[kRootSeq] = cursor;
  slab_.resize(cursor);
  for (const Node* sub : subtrees) {
    cursor -= size_[sub->seq];
    begin_[sub->seq] = cursor;
  }

  // Pass 2: offsets, top-down, each parent handing out its span the same
  // way: its own list first, then its children by descending rank.
  ParallelFor(subtrees.size(), workers.size(), [&](size_t worker, size_t i) {
    Worker& w = workers[worker];
    w.nodes.assign(1, subtrees[i]);
    while (!w.nodes.empty()) {
      const Node* n = w.nodes.back();
      w.nodes.pop_back();
      const size_t begin = begin_[n->seq];
      std::copy(n->ts_list.begin(), n->ts_list.end(),
                slab_.begin() + static_cast<std::ptrdiff_t>(begin));
      w.rank_timestamps[n->rank] += size_[n->seq];
      w.children.clear();
      for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
        w.children.push_back(c);
      }
      std::sort(w.children.begin(), w.children.end(), by_rank);
      size_t child_cursor = begin + size_[n->seq];
      for (const Node* c : w.children) {
        child_cursor -= size_[c->seq];
        begin_[c->seq] = child_cursor;
        w.nodes.push_back(c);
      }
    }
  });
  for (const Worker& w : workers) {
    for (size_t rank = 0; rank < rank_timestamps_.size(); ++rank) {
      rank_timestamps_[rank] += w.rank_timestamps[rank];
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
