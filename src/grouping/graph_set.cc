#include "grouping/graph_set.h"

#include <algorithm>
#include <limits>

namespace ustl {
namespace {

// A gathered move: the PivotMove, the constant-ness its visiting order
// breaks ties on, and whether it survives the twin filter.
struct MoveKey {
  bool constant;
  bool keep;
  PivotMove move;
};

}  // namespace

Result<GraphSet> GraphSet::Build(const std::vector<StringPair>& pairs,
                                 const GraphBuilder& builder,
                                 ThreadPool* pool,
                                 const IndexBuildOptions& /*index_options*/) {
  GraphSet set;
  std::vector<GraphBuilder::BuildRequest> requests;
  requests.reserve(pairs.size());
  for (const StringPair& pair : pairs) {
    requests.push_back({pair.lhs, pair.rhs});
  }
  Result<std::vector<TransformationGraph>> graphs =
      builder.BuildBatch(requests, nullptr);
  if (!graphs.ok()) return graphs.status();
  set.graphs_ = std::move(graphs).value();
  // The interner bounds every label id, so indexing skips its pre-sizing
  // scan; the pool builds the label-range shards concurrently (the index
  // is bit-identical to a serial build either way).
  set.index_ = InvertedIndex::Build(
      set.graphs_, pool, /*num_shards=*/0,
      builder.interner() != nullptr ? builder.interner()->size() : 0);
  set.alive_.assign(set.graphs_.size(), 1);
  set.BuildMoves(builder.interner(), pool);
  return set;
}

void GraphSet::BuildMoves(const LabelInterner* interner, ThreadPool* pool) {
  // Constant-ness per label, looked up once (the interner may be null:
  // then no label counts as constant).
  std::vector<char> constant;
  if (interner != nullptr) {
    constant.resize(interner->size());
    for (LabelId label = 0; label < constant.size(); ++label) {
      constant[label] =
          interner->Get(label).kind() == StringFn::Kind::kConstantStr;
    }
  }

  // Every list length fits PivotMove::list_length.
  USTL_CHECK(index_.NumPostings() <= std::numeric_limits<uint32_t>::max());

  // Graphs are cut into contiguous chunks of at least kChunkGraphs graphs
  // (so small sets stay on the calling thread) and at most kMaxChunks of
  // them; the boundaries depend on the graph count only. Each chunk's
  // moves and node start offsets (relative to the chunk's first move)
  // are built independently, so the table is index-deterministic for any
  // pool.
  constexpr size_t kChunkGraphs = 256;
  constexpr size_t kMaxChunks = 16;
  struct ChunkMoves {
    std::vector<PivotMove> moves;
    std::vector<uint32_t> node_starts;  // one per node of each graph
  };
  const size_t num_chunks = std::max<size_t>(
      1, std::min(graphs_.size() / kChunkGraphs, kMaxChunks));
  std::vector<ChunkMoves> chunks =
      ParallelMap<ChunkMoves>(pool, num_chunks, [&](size_t chunk) {
        ChunkMoves out;
        std::vector<MoveKey> keys;
        // seen[c] == stamp iff twin class c already has a move on the
        // current edge; a fresh stamp per edge resets it.
        std::vector<uint32_t> seen(index_.NumTwinClasses(), 0);
        uint32_t stamp = 0;
        const size_t begin = graphs_.size() * chunk / num_chunks;
        const size_t end = graphs_.size() * (chunk + 1) / num_chunks;
        for (size_t g = begin; g < end; ++g) {
          const TransformationGraph& graph = graphs_[g];
          for (int node = 1; node <= graph.num_nodes(); ++node) {
            out.node_starts.push_back(static_cast<uint32_t>(out.moves.size()));
            keys.clear();
            for (const GraphEdge& edge : graph.edges_from(node)) {
              const size_t edge_begin = keys.size();
              for (LabelId label : edge.labels) {
                keys.push_back(MoveKey{
                    label < constant.size() && constant[label] != 0, false,
                    PivotMove{label,
                              static_cast<uint32_t>(index_.ListLength(label)),
                              edge.to}});
              }
              // Keep the first move of each twin class on this edge. Twins
              // have equal list lengths, so within a class the visiting
              // order below reduces to non-constant first, then LabelId —
              // the order of these two passes over the sorted labels.
              ++stamp;
              for (const bool constant_pass : {false, true}) {
                for (size_t k = edge_begin; k < keys.size(); ++k) {
                  if (keys[k].constant != constant_pass) continue;
                  const uint32_t twin_class =
                      index_.TwinClass(keys[k].move.label);
                  if (seen[twin_class] == stamp) continue;
                  seen[twin_class] = stamp;
                  keys[k].keep = true;
                }
              }
            }
            // Big lists first: they raise the best count early, which makes
            // the early terminations bite. Ties between equally long lists
            // break toward non-constant labels: for singleton structure
            // groups every path has count 1 and the first-found path wins,
            // so this bias is what keeps their pivots from degenerating
            // into pure "emit this literal" programs (which the framework
            // rightly filters out). A multi-valued label on two edges ties
            // under this key; std::sort orders such ties by a fixed
            // permutation of its input, so every move (twins included) is
            // sorted in gather order (edge, then label) and the twins are
            // dropped only afterwards.
            std::sort(keys.begin(), keys.end(),
                      [](const MoveKey& a, const MoveKey& b) {
                        if (a.move.list_length != b.move.list_length) {
                          return a.move.list_length > b.move.list_length;
                        }
                        if (a.constant != b.constant) return !a.constant;
                        return a.move.label < b.move.label;
                      });
            for (const MoveKey& key : keys) {
              if (key.keep) out.moves.push_back(key.move);
            }
          }
        }
        return out;
      });

  size_t total_moves = 0;
  size_t total_nodes = 0;
  for (const ChunkMoves& chunk : chunks) {
    total_moves += chunk.moves.size();
    total_nodes += chunk.node_starts.size();
  }
  USTL_CHECK(total_moves <= std::numeric_limits<uint32_t>::max() &&
             total_nodes < std::numeric_limits<uint32_t>::max());
  moves_.reserve(total_moves);
  move_offsets_.reserve(total_nodes + 1);
  for (ChunkMoves& chunk : chunks) {
    const uint32_t base = static_cast<uint32_t>(moves_.size());
    for (uint32_t start : chunk.node_starts) {
      move_offsets_.push_back(base + start);
    }
    moves_.insert(moves_.end(), chunk.moves.begin(), chunk.moves.end());
    std::vector<PivotMove>().swap(chunk.moves);
  }
  // Graph g's nodes occupy move_offsets_ slots from node_base_[g] on; the
  // sink has no moves, so its end is the next graph's start (or the
  // sentinel).
  node_base_.reserve(graphs_.size());
  uint32_t slot = 0;
  for (const TransformationGraph& graph : graphs_) {
    node_base_.push_back(slot);
    slot += static_cast<uint32_t>(graph.num_nodes());
  }
  move_offsets_.push_back(static_cast<uint32_t>(moves_.size()));
}

size_t GraphSet::AliveCount() const {
  size_t count = 0;
  for (char a : alive_) count += a != 0;
  return count;
}

}  // namespace ustl
