#include "rpm/core/rp_tree.h"

#include <algorithm>
#include <new>
#include <vector>

#include "rpm/common/failpoint.h"
#include "rpm/common/logging.h"
#include "rpm/core/thread_pool.h"

namespace rpm {

TsPrefixTree::TsPrefixTree(std::vector<ItemId> items_by_rank)
    : items_by_rank_(std::move(items_by_rank)),
      heads_(items_by_rank_.size(), nullptr),
      chain_tails_(items_by_rank_.size(), nullptr) {
  root_ = arena_.Create();  // Root ("null" label in Algorithm 2).
  root_->seq = next_seq_++;
}

TsPrefixTree::Node* TsPrefixTree::GetOrCreateChild(Node* parent,
                                                   uint32_t rank) {
  for (Node* c = parent->first_child; c != nullptr; c = c->next_sibling) {
    if (c->rank == rank) return c;
  }
  // Same failure surface a real arena-chunk exhaustion would have; the
  // engine layer maps it to kResourceExhausted (DESIGN.md §7.4).
  if (FailpointTriggered("rptree.alloc")) throw std::bad_alloc();
  Node* node = arena_.Create();
  node->rank = rank;
  node->seq = next_seq_++;
  node->parent = parent;
  node->next_sibling = parent->first_child;
  parent->first_child = node;
  // Append to the node-link chain for this rank.
  if (chain_tails_[rank] == nullptr) {
    heads_[rank] = node;
  } else {
    chain_tails_[rank]->next_link = node;
  }
  chain_tails_[rank] = node;
  ++live_nodes_;
  return node;
}

void TsPrefixTree::InsertTransaction(const std::vector<uint32_t>& ranks,
                                     Timestamp ts) {
  if (ranks.empty()) return;
  Node* node = root_;
  for (uint32_t rank : ranks) {
    RPM_DCHECK(rank < num_ranks());
    node = GetOrCreateChild(node, rank);
  }
  node->ts_list.push_back(ts);
  ++timestamp_count_;
}

void TsPrefixTree::InsertPath(const std::vector<uint32_t>& ranks,
                              std::span<const Timestamp> ts_list) {
  if (ranks.empty()) return;
  Node* node = root_;
  for (uint32_t rank : ranks) {
    RPM_DCHECK(rank < num_ranks());
    node = GetOrCreateChild(node, rank);
  }
  node->ts_list.insert(node->ts_list.end(), ts_list.begin(), ts_list.end());
  timestamp_count_ += ts_list.size();
}

TsPrefixTree TsPrefixTree::Clone() const {
  TsPrefixTree copy(items_by_rank_);
  // Paths carry strictly ascending ranks (InsertTransaction/InsertPath
  // insert sorted rank sequences), so walking the chains in ascending rank
  // order guarantees every node's parent clone already exists. Node::seq
  // gives an exact flat original->clone map (hot path of the query
  // engine's build-once/mine-many reuse; a hash map here once cost more
  // than rebuilding the tree from the database).
  std::vector<Node*> clone_of(next_seq_, nullptr);
  clone_of[root_->seq] = copy.root_;
  for (size_t rank = 0; rank < heads_.size(); ++rank) {
    for (const Node* n = heads_[rank]; n != nullptr; n = n->next_link) {
      Node* parent = clone_of[n->parent->seq];
      if (FailpointTriggered("rptree.alloc")) throw std::bad_alloc();
      Node* node = copy.arena_.Create();
      node->rank = n->rank;
      node->seq = copy.next_seq_++;
      node->parent = parent;
      node->ts_list = n->ts_list;
      node->next_sibling = parent->first_child;
      parent->first_child = node;
      if (copy.chain_tails_[rank] == nullptr) {
        copy.heads_[rank] = node;
      } else {
        copy.chain_tails_[rank]->next_link = node;
      }
      copy.chain_tails_[rank] = node;
      ++copy.live_nodes_;
      clone_of[n->seq] = node;
    }
  }
  // Every live timestamp sits on some chained node (lists whose push-up
  // parent is the root are dropped), so the chain walk copied all of them.
  copy.timestamp_count_ = timestamp_count_;
  return copy;
}

TsPrefixTree TsPrefixTree::Splice(
    std::vector<TsPrefixTree> shards,
    const std::vector<std::vector<uint32_t>>& first_touch,
    size_t num_threads) {
  RPM_CHECK(!shards.empty() && first_touch.size() == shards.size());
  if (shards.size() == 1) return std::move(shards[0]);
  const size_t num_shards = shards.size();
  const size_t num_ranks = shards[0].num_ranks();
  std::vector<uint32_t> seq_offset(num_shards + 1, 0);
  for (size_t k = 0; k < num_shards; ++k) {
    RPM_DCHECK(shards[k].items_by_rank_ == shards[0].items_by_rank_);
    seq_offset[k + 1] = seq_offset[k] + shards[k].next_seq_;
  }
  Node* const root = shards[0].root_;

  // Each rank's chain is merged by one task and only its own nodes are
  // written (seq, parent, next_link), so tasks never share a node. A
  // transaction creates at most one node per rank, so the keys of one
  // rank are distinct across all shards.
  std::vector<Node*> heads(num_ranks, nullptr);
  std::vector<Node*> tails(num_ranks, nullptr);
  ParallelFor(num_ranks, num_threads, [&](size_t, size_t rank) {
    std::vector<Node*> cursor(num_shards);
    for (size_t k = 0; k < num_shards; ++k) cursor[k] = shards[k].heads_[rank];
    Node* tail = nullptr;
    while (true) {
      size_t pick = num_shards;
      uint32_t pick_key = 0;
      for (size_t k = 0; k < num_shards; ++k) {
        if (cursor[k] == nullptr) continue;
        const uint32_t key = first_touch[k][cursor[k]->seq];
        if (pick == num_shards || key < pick_key) {
          pick = k;
          pick_key = key;
        }
      }
      if (pick == num_shards) break;
      Node* n = cursor[pick];
      cursor[pick] = n->next_link;
      if (n->parent == shards[pick].root_) n->parent = root;
      n->seq += seq_offset[pick];
      if (tail == nullptr) {
        heads[rank] = n;
      } else {
        tail->next_link = n;
      }
      tail = n;
    }
    if (tail != nullptr) tail->next_link = nullptr;
    tails[rank] = tail;
  });

  TsPrefixTree tree = std::move(shards[0]);
  tree.heads_ = std::move(heads);
  tree.chain_tails_ = std::move(tails);
  // The root's children: each shard's list appended after the previous.
  Node** slot = &root->first_child;
  while (*slot != nullptr) slot = &(*slot)->next_sibling;
  for (size_t k = 1; k < num_shards; ++k) {
    TsPrefixTree& shard = shards[k];
    *slot = shard.root_->first_child;
    shard.root_->first_child = nullptr;
    while (*slot != nullptr) slot = &(*slot)->next_sibling;
    tree.live_nodes_ += shard.live_nodes_;
    tree.timestamp_count_ += shard.timestamp_count_;
    tree.arena_.Adopt(std::move(shard.arena_));
  }
  tree.next_seq_ = seq_offset[num_shards];
  return tree;
}

TsPrefixTree::RetireStats TsPrefixTree::RetireBefore(Timestamp cutoff) {
  RetireStats stats;
  // Pass 1: filter expired timestamps out of every chained node's list.
  // std::remove_if keeps relative order, so a concatenation of sorted
  // runs stays one (each run just loses a prefix-or-scattered subset that
  // was < cutoff; what survives of any sorted run is still sorted).
  for (size_t rank = 0; rank < heads_.size(); ++rank) {
    for (Node* n = heads_[rank]; n != nullptr; n = n->next_link) {
      if (n->ts_list.empty()) continue;
      const size_t before = n->ts_list.size();
      n->ts_list.erase(
          std::remove_if(n->ts_list.begin(), n->ts_list.end(),
                         [cutoff](Timestamp t) { return t < cutoff; }),
          n->ts_list.end());
      stats.timestamps_retired += before - n->ts_list.size();
    }
  }
  timestamp_count_ -= stats.timestamps_retired;
  // Pass 2: detach empty leaves, deepest ranks first. Children always
  // carry a strictly higher rank than their parent (paths are ascending),
  // so a prefix node whose entire subtree expired is itself a childless
  // empty node by the time its rank is swept. Chains are rebuilt keeping
  // the survivors' original order.
  for (size_t rank = heads_.size(); rank-- > 0;) {
    Node* new_head = nullptr;
    Node* new_tail = nullptr;
    for (Node* n = heads_[rank]; n != nullptr;) {
      Node* next = n->next_link;
      if (n->ts_list.empty() && n->first_child == nullptr) {
        n->ts_list.shrink_to_fit();
        Node** slot = &n->parent->first_child;
        while (*slot != n) {
          RPM_DCHECK(*slot != nullptr);
          slot = &(*slot)->next_sibling;
        }
        *slot = n->next_sibling;
        --live_nodes_;
        ++stats.nodes_retired;
      } else {
        n->next_link = nullptr;
        if (new_tail == nullptr) {
          new_head = n;
        } else {
          new_tail->next_link = n;
        }
        new_tail = n;
      }
      n = next;
    }
    heads_[rank] = new_head;
    chain_tails_[rank] = new_tail;
  }
  return stats;
}

void TsPrefixTree::PushUpAndRemove(size_t rank) {
  for (Node* n = heads_[rank]; n != nullptr; n = n->next_link) {
    RPM_DCHECK(n->first_child == nullptr)
        << "rank " << rank << " removed before deeper ranks";
    Node* parent = n->parent;
    if (parent != root_) {
      if (parent->ts_list.empty()) {
        parent->ts_list = std::move(n->ts_list);
      } else {
        parent->ts_list.insert(parent->ts_list.end(), n->ts_list.begin(),
                               n->ts_list.end());
      }
    } else {
      timestamp_count_ -= n->ts_list.size();  // Root discards its lists.
    }
    n->ts_list.clear();
    n->ts_list.shrink_to_fit();
    // Unlink from the parent's sibling list (the node itself stays in the
    // arena until the tree dies).
    Node** slot = &parent->first_child;
    while (*slot != n) {
      RPM_DCHECK(*slot != nullptr);
      slot = &(*slot)->next_sibling;
    }
    *slot = n->next_sibling;
    --live_nodes_;
  }
  heads_[rank] = nullptr;
  chain_tails_[rank] = nullptr;
}

}  // namespace rpm
