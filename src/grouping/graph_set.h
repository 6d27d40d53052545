// A GraphSet bundles the transformation graphs of a collection of
// replacements with their inverted index, pivot-search move table and
// liveness flags. One GraphSet corresponds to one structure group when
// structure refinement (Section 7.2) is on, or to the whole candidate set
// otherwise.
//
// The set also holds the pivot search's move table: for every (graph,
// node), the outgoing (label, to) moves in the run-wide visiting order,
// computed once at Build instead of on every DFS visit. Only one move per
// (twin class, to) is kept — the first in that order. Twin labels
// (index/inverted_index.h) have identical posting lists, so every later
// twin would extend the current path to the same list as the kept one
// and the search's sibling dedup would drop it after paying its join;
// dropping it up front changes neither groups nor expansions. The key
// includes `to` because Prefix/Suffix labels are multi-valued: one label
// can sit on several outgoing edges of one node (Suffix(Tl, 2) on both
// 6->8 and 6->16, say), and each of those is a distinct move.
#ifndef USTL_GROUPING_GRAPH_SET_H_
#define USTL_GROUPING_GRAPH_SET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "graph/graph_builder.h"
#include "graph/transformation_graph.h"
#include "grouping/group.h"
#include "index/inverted_index.h"

namespace ustl {

/// One outgoing DFS move: label `label` on the edge (node, to). The
/// label's inverted-list length |I[label]| rides along for the search's
/// upper-bound prunes.
struct PivotMove {
  LabelId label;
  uint32_t list_length;
  int to;
};

/// The moves out of one node, in visiting order.
class MoveSpan {
 public:
  MoveSpan(const PivotMove* begin, const PivotMove* end)
      : begin_(begin), end_(end) {}
  const PivotMove* begin() const { return begin_; }
  const PivotMove* end() const { return end_; }
  size_t size() const { return static_cast<size_t>(end_ - begin_); }

 private:
  const PivotMove* begin_;
  const PivotMove* end_;
};

/// Owns graphs + index + move table + liveness for one grouping run.
class GraphSet {
 public:
  /// Builds graphs for all pairs with `builder` and indexes them.
  /// GraphId i corresponds to pairs[i]. The graphs are built on the
  /// calling thread (GraphBuilder::BuildBatch). A non-null `pool` builds
  /// the inverted index in label-range shards (InvertedIndex::Build) and
  /// the move table in graph chunks; the result — graphs, interner ids,
  /// index and move table — is bit-identical to the serial build.
  /// `index_options` is inert (see IndexBuildOptions).
  static Result<GraphSet> Build(const std::vector<StringPair>& pairs,
                                const GraphBuilder& builder,
                                ThreadPool* pool = nullptr,
                                const IndexBuildOptions& index_options = {});

  const std::vector<TransformationGraph>& graphs() const { return graphs_; }
  const TransformationGraph& graph(GraphId g) const { return graphs_[g]; }
  const InvertedIndex& index() const { return index_; }

  /// The moves out of `node` (1-based) of graph `g`: one per (twin class,
  /// to), ordered by |I[label]| descending, then non-constant labels
  /// first, then LabelId ascending — a run-wide total order on labels, so
  /// the first-found maximum of the search is canonical. Empty for the
  /// sink node.
  MoveSpan moves(GraphId g, int node) const {
    const size_t slot = node_base_[g] + static_cast<size_t>(node) - 1;
    return MoveSpan(moves_.data() + move_offsets_[slot],
                    moves_.data() + move_offsets_[slot + 1]);
  }

  size_t size() const { return graphs_.size(); }

  bool alive(GraphId g) const { return alive_[g] != 0; }
  const std::vector<char>& alive_vector() const { return alive_; }
  void Kill(GraphId g) {
    if (alive_[g] == 0) return;
    alive_[g] = 0;
    ++kill_epoch_;
  }
  size_t AliveCount() const;

  /// Monotone counter bumped on every alive -> dead transition. Kills are
  /// permanent, so anything computed over the alive set (a cached pivot
  /// search, say) stays valid while the epoch is unchanged and needs
  /// revalidation only against graphs killed since — the incremental
  /// engine's cross-round search cache keys its invalidation on this.
  uint64_t kill_epoch() const { return kill_epoch_; }

 private:
  GraphSet() = default;

  /// Fills the move table; `interner` (may be null) supplies label
  /// kinds.
  void BuildMoves(const LabelInterner* interner, ThreadPool* pool);

  std::vector<TransformationGraph> graphs_;
  InvertedIndex index_;
  // Move table, CSR over (graph, node): node n of graph g owns
  // moves_[move_offsets_[b + n - 1], move_offsets_[b + n]) with
  // b = node_base_[g]; move_offsets_ ends with a sentinel.
  std::vector<PivotMove> moves_;
  std::vector<uint32_t> move_offsets_;
  std::vector<uint32_t> node_base_;
  std::vector<char> alive_;
  uint64_t kill_epoch_ = 0;
};

}  // namespace ustl

#endif  // USTL_GROUPING_GRAPH_SET_H_
