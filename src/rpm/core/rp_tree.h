// RP-tree: a prefix tree over rank-ordered items whose nodes carry
// timestamp lists (ts-lists) at the deepest node of each inserted
// transaction (Sec. 4.2.1, Figures 3 and 5).
//
// Unlike an FP-tree there is no per-node support count; all frequency *and*
// periodicity information lives in the ts-lists (the paper's tail nodes).
// Mining proceeds bottom-up: after the lowest-ranked item is processed its
// ts-lists are pushed up to the parents (Lemma 3), which makes the next
// item's nodes complete in turn.
//
// Push-up only ever appends a child's accumulated list to its parent's,
// deepest rank first. So when a node's rank comes up, its list is its own
// timestamps followed by its children's accumulated lists in descending
// child rank — exactly the node's span in a preorder layout of every
// ts-list (children visited by descending rank). TsPreorderLayout
// (core/projection.h) builds that layout once over an unmined tree, one
// root-child subtree per task, which lets the miner read every node's
// push-up accumulation without consuming, or cloning, the tree.
//
// The structure is shared by RP-growth and the PF-growth++ baseline; the
// two differ only in the measures/pruning applied to collected ts-lists.

#ifndef RPM_CORE_RP_TREE_H_
#define RPM_CORE_RP_TREE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "rpm/core/arena.h"
#include "rpm/timeseries/types.h"

namespace rpm {

/// Prefix tree keyed by item *rank* (0 = first item of the tree's order).
/// Owns its nodes via an arena (bump-allocated, bulk-freed with the tree;
/// a spliced tree's arena has adopted the shards' nodes);
/// not copyable (conditional-tree mining mutates it in place) — the
/// top-level miner reads a shared build through TsPreorderLayout, and an
/// independent copy goes through Clone().
class TsPrefixTree {
 public:
  struct Node {
    uint32_t rank = 0;
    /// Per-tree node index (root = 0, below NodeSeqBound()): creation
    /// order, offset per shard in a spliced tree, never reused. Lets
    /// Clone() map original nodes to copies, and TsPreorderLayout index
    /// its per-node spans, through a flat vector instead of a hash map;
    /// lives in the padding after `rank`, so it costs no space.
    uint32_t seq = 0;
    Node* parent = nullptr;
    Node* next_link = nullptr;  // Chain of nodes with the same rank.
    /// Children as an intrusive singly-linked sibling list (no per-node
    /// child vector to allocate).
    Node* first_child = nullptr;
    Node* next_sibling = nullptr;
    /// Timestamps of transactions whose deepest item is this node
    /// (plus any lists pushed up from removed descendants). Not globally
    /// sorted after push-up, but always a concatenation of sorted runs:
    /// transactions insert in ascending timestamp order and push-up /
    /// InsertPath only append whole lists, so consumers recover the
    /// sorted union with the run-aware merge kernel (ts_merge.h) instead
    /// of re-sorting.
    TimestampList ts_list;
  };

  /// `items_by_rank[r]` is the ItemId occupying rank r.
  explicit TsPrefixTree(std::vector<ItemId> items_by_rank);

  TsPrefixTree(const TsPrefixTree&) = delete;
  TsPrefixTree& operator=(const TsPrefixTree&) = delete;
  TsPrefixTree(TsPrefixTree&&) = default;
  TsPrefixTree& operator=(TsPrefixTree&&) = default;

  size_t num_ranks() const { return items_by_rank_.size(); }
  ItemId ItemAtRank(size_t rank) const { return items_by_rank_[rank]; }
  const std::vector<ItemId>& items_by_rank() const { return items_by_rank_; }

  /// Inserts one transaction: `ranks` sorted ascending, duplicate-free.
  /// Appends `ts` to the ts-list of the deepest node (Algorithm 3).
  /// No-op for an empty rank set.
  void InsertTransaction(const std::vector<uint32_t>& ranks, Timestamp ts);

  /// Inserts a whole prefix path carrying an accumulated ts-list
  /// (conditional-tree construction). Lists of coinciding paths merge.
  void InsertPath(const std::vector<uint32_t>& ranks,
                  std::span<const Timestamp> ts_list);

  /// The root ("null" label): no rank, no timestamps; its children head
  /// the tree's root-child subtrees.
  const Node* root() const { return root_; }

  /// Head of the node-link chain for `rank` (nullptr when absent).
  const Node* HeadOfRank(size_t rank) const { return heads_[rank]; }

  /// Upper bound on every Node::seq of this tree (the root included), for
  /// sizing flat per-node side tables.
  size_t NodeSeqBound() const { return next_seq_; }

  /// Visits every node of `rank`: fn(path, ts_list) where `path` holds the
  /// ancestor ranks in ascending order (root side first), excluding `rank`
  /// itself. The ts_list reference stays valid until the next mutation.
  /// `path` is ONE buffer reused across callbacks — callers that keep
  /// paths must copy the contents (miners append them to a flat slab
  /// rather than cloning a vector per node).
  template <typename Fn>
  void ForEachNodeOfRank(size_t rank, Fn&& fn) const {
    std::vector<uint32_t> path;
    for (const Node* n = heads_[rank]; n != nullptr; n = n->next_link) {
      path.clear();
      for (const Node* a = n->parent; a != root_; a = a->parent) {
        path.push_back(a->rank);
      }
      std::reverse(path.begin(), path.end());
      fn(path, n->ts_list);
    }
  }

  /// ForEachNodeOfRank with early exit: fn returns false to stop the walk
  /// (budget-governed miners abandon a rank mid-walk instead of paying for
  /// the full node chain after a stop request).
  template <typename Fn>
  void ForEachNodeOfRankWhile(size_t rank, Fn&& fn) const {
    std::vector<uint32_t> path;
    for (const Node* n = heads_[rank]; n != nullptr; n = n->next_link) {
      path.clear();
      for (const Node* a = n->parent; a != root_; a = a->parent) {
        path.push_back(a->rank);
      }
      std::reverse(path.begin(), path.end());
      if (!fn(path, n->ts_list)) return;
    }
  }

  /// Pushes every ts-list of `rank` to the respective parent and detaches
  /// the nodes (Algorithm 4 line 9 / Lemma 3). After this, HeadOfRank(rank)
  /// is nullptr. Precondition: all deeper ranks were already removed.
  void PushUpAndRemove(size_t rank);

  /// Deep copy into a fresh arena. Node-link chains are reproduced in the
  /// original chain order, so mining the clone collects every conditional
  /// pattern base in exactly the order the original would — outputs AND
  /// schedule-invariant counters are bit-identical. O(nodes + timestamps);
  /// much cheaper than re-scanning the database, which is what makes a
  /// build-once/mine-many query engine pay off. Safe to call concurrently
  /// from several threads on the same (unmutated) tree.
  TsPrefixTree Clone() const;

  /// Splices root-sharded trees (same rank order, consumed) into one.
  /// Each shard holds the transactions whose lowest rank falls in its own
  /// range, inserted in database order, so no root child — and no node
  /// below one — exists in two shards. `first_touch[k][s]` is the database
  /// index of the transaction that created shard k's node with seq s.
  /// Every node-link chain of the result is the k-way merge of the shard
  /// chains by that index: the sequential build's first-touch order, so
  /// the result is observably identical to inserting every transaction
  /// into one tree (only Node::seq values, offset per shard, and the
  /// root's sibling order differ; nothing reads either). Chains merge in
  /// parallel over ranks on `num_threads` workers. No node is copied:
  /// the result's arena adopts the shard arenas' chunks, and shard 0's
  /// root is its root.
  static TsPrefixTree Splice(
      std::vector<TsPrefixTree> shards,
      const std::vector<std::vector<uint32_t>>& first_touch,
      size_t num_threads);

  /// Outcome of a RetireBefore sweep.
  struct RetireStats {
    size_t timestamps_retired = 0;
    size_t nodes_retired = 0;
  };

  /// Retires every timestamp < `cutoff` from all ts-lists, then detaches
  /// nodes left with no timestamps and no live children — the lazy
  /// expiry sweep of the windowed miner (DESIGN.md §9). Filtering keeps
  /// relative order, so each surviving list is still a concatenation of
  /// sorted runs and node-link chains keep their original order (the
  /// determinism contract of Clone/Splice). Like PushUpAndRemove,
  /// retired nodes stay in the arena until the tree dies; the windowed
  /// miner's per-delta trees are transient, so the slabs are reclaimed at
  /// the end of every delta, and long-lived trees are rebuilt by its
  /// compaction policy instead of being retired in place forever.
  RetireStats RetireBefore(Timestamp cutoff);

  /// Number of live nodes, excluding the root (Lemma 2's size measure).
  size_t NodeCount() const { return live_nodes_; }

  /// Timestamps currently stored across all ts-lists.
  size_t TimestampCount() const { return timestamp_count_; }

  /// Approximate live footprint in bytes: nodes plus stored timestamps,
  /// maintained by O(1) counters. This is what query memory budgets
  /// account against (transient per-path buffers are excluded — see
  /// DESIGN.md §7.2).
  size_t ApproxBytes() const {
    return live_nodes_ * sizeof(Node) + timestamp_count_ * sizeof(Timestamp);
  }

  bool empty() const { return live_nodes_ == 0; }

 private:
  Node* GetOrCreateChild(Node* parent, uint32_t rank);

  std::vector<ItemId> items_by_rank_;
  /// Stable addresses; owns root_ and every node, including those of the
  /// shards a Splice adopted.
  Arena<Node> arena_;
  Node* root_ = nullptr;
  std::vector<Node*> heads_;
  std::vector<Node*> chain_tails_;  // O(1) chain append.
  size_t live_nodes_ = 0;
  size_t timestamp_count_ = 0;  // Timestamps across all live ts-lists.
  uint32_t next_seq_ = 0;  // Next Node::seq (never reused after push-up).
};

}  // namespace rpm

#endif  // RPM_CORE_RP_TREE_H_
