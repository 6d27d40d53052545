// Inverted index over edge labels (Section 5.1). The posting list of a
// string function f holds every triple (graph, i, j) such that the edge
// e(i,j) of that graph carries label f. Intersecting lists joins adjacent
// edges: (G, a, b) from the current path list combines with (G, b, c) from
// the label list to give (G, a, c), so the intersection of the lists of
// f1 .. fk is exactly the set of spans where the path f1 (+) ... (+) fk
// matches.
//
// Postings are bit-packed into one 64-bit word (graph | start | end,
// most-significant first), so a PostingList is a flat cache-dense array
// whose numeric word order IS the canonical (graph, start, end) posting
// order. The hot-path join is ExtendInto: it writes into a caller-owned
// scratch list (no allocation in the steady state) and fuses the
// distinct-graph count and a content hash into the merge so callers never
// re-scan the output. Build shards the posting lists by label range over
// a ThreadPool; every label's list is filled by exactly one shard in the
// serial iteration order, so the index is bit-identical for any shard or
// thread count.
//
// Twin classes. Many labels have identical posting lists (on the address
// tables, 60% of labels, holding 77% of the postings): they sit on
// exactly the same edges of every graph, so any path through one of them
// matches exactly where the same path through its twin does. Build groups
// such labels into one twin class and stores one list per class; Find and
// ListLength look labels up through a label -> class map, so every label
// still reads its own (shared) list. NumPostings and MemoryBytes count
// the stored data, NumLabels still counts labels. Pivot search uses
// TwinClass to walk one member per class (see grouping/graph_set.h).
#ifndef USTL_INDEX_INVERTED_INDEX_H_
#define USTL_INDEX_INVERTED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/transformation_graph.h"

namespace ustl {

class ThreadPool;

/// One occurrence of a path: it spans nodes [start, end] of `graph`.
/// Packed as graph (32 bits) | start (16) | end (16); the field order
/// makes uint64 comparison equal to lexicographic (graph, start, end)
/// comparison. Node ids are 1 .. |t|+1, so targets are capped at
/// kMaxNode - 1 characters (enforced once per graph in Build).
class Posting {
 public:
  static constexpr GraphId kMaxGraph = 0xffffffffu;
  static constexpr int kMaxNode = 0xffff;

  Posting() = default;
  constexpr Posting(GraphId graph, int start, int end)
      : bits_((static_cast<uint64_t>(graph) << 32) |
              (static_cast<uint64_t>(start & kMaxNode) << 16) |
              static_cast<uint64_t>(end & kMaxNode)) {}

  constexpr GraphId graph() const { return static_cast<GraphId>(bits_ >> 32); }
  constexpr int start() const {
    return static_cast<int>((bits_ >> 16) & kMaxNode);
  }
  constexpr int end() const { return static_cast<int>(bits_ & kMaxNode); }

  /// The raw packed word; also the per-posting unit of the ExtendStats
  /// content hash.
  constexpr uint64_t bits() const { return bits_; }

  /// The adjacency-join product of two postings of the same graph: keeps
  /// a's graph and start, takes b's end. Caller guarantees
  /// a.graph() == b.graph() and a.end() == b.start().
  static constexpr Posting Join(Posting a, Posting b) {
    return FromBits((a.bits_ & ~static_cast<uint64_t>(kMaxNode)) |
                    (b.bits_ & static_cast<uint64_t>(kMaxNode)));
  }

  static constexpr Posting FromBits(uint64_t bits) {
    Posting p;
    p.bits_ = bits;
    return p;
  }

  constexpr bool operator==(const Posting& o) const { return bits_ == o.bits_; }
  constexpr bool operator!=(const Posting& o) const { return bits_ != o.bits_; }
  constexpr bool operator<(const Posting& o) const { return bits_ < o.bits_; }

 private:
  uint64_t bits_ = 0;
};

static_assert(sizeof(Posting) == sizeof(uint64_t),
              "postings must stay packed one-word");

/// Sorted by (graph, start, end) — equivalently by packed bits — unique.
using PostingList = std::vector<Posting>;

/// FNV-1a parameters of the posting content hash.
inline constexpr uint64_t kPostingHashSeed = 14695981039346656037ull;
inline constexpr uint64_t kPostingHashPrime = 1099511628211ull;

/// Byproducts of ExtendInto, computed inside the merge join at no extra
/// pass over the output: the number of distinct graphs in the result and
/// an order-dependent FNV-1a hash of its packed words. Equal lists always
/// hash equal, so the hash serves as the sibling-dedup key of pivot
/// search (backed by a full compare to rule out collisions).
struct ExtendStats {
  size_t distinct_graphs = 0;
  uint64_t hash = kPostingHashSeed;
};

/// Below this label-range size, Build's automatic shard count (num_shards
/// == 0) stays single-shard: the per-shard full scans dominate the split
/// posting writes. Tuned against the 4.8k-label address workload, where
/// auto-sharding ran 0.39x serial speed.
inline constexpr size_t kAutoShardMinLabels = 1 << 14;

// Inert shim. The raw packed lists above are the only posting layout;
// nothing reads these two types, IndexBuildOptions' members or
// GroupingOptions::{index_codec, block_postings}. They exist only because
// bench_e2e/replay.cc compiles against them, and go with those lines the
// next time the benchmark is revised.
enum class IndexCodec : uint8_t {
  kRaw = 0,
};

struct BlockPostingsOptions {};

struct IndexBuildOptions {
  IndexCodec codec = IndexCodec::kRaw;
  BlockPostingsOptions block;
};

/// Immutable label -> posting-list map over a set of graphs, one stored
/// list per twin class.
class InvertedIndex {
 public:
  /// Indexes every (edge, label) pair of every graph. Graph ids are the
  /// positions in `graphs`. A non-null `pool` builds label-range shards
  /// concurrently; the result is bit-identical for every (pool,
  /// num_shards) combination because each label's list is produced by
  /// exactly one shard in the serial iteration order, and the twin
  /// classes are then formed serially from the lists' contents alone.
  /// `num_shards` 0 picks one shard per pool thread, falling back to the
  /// serial single-shard path when the pool is null or busy (nested call)
  /// or the label range is below kAutoShardMinLabels — sharding pays one
  /// full graph scan per shard, which loses on small inputs. An explicit
  /// num_shards is always honored. `num_labels_hint` (e.g. the interner
  /// size) skips the pre-sizing scan when the caller already knows an
  /// upper bound on label ids; 0 means "scan for the maximum".
  /// `build_options` is inert (see IndexBuildOptions).
  static InvertedIndex Build(const std::vector<TransformationGraph>& graphs,
                             ThreadPool* pool = nullptr,
                             size_t num_shards = 0,
                             size_t num_labels_hint = 0,
                             const IndexBuildOptions& build_options = {});

  /// The twin class of `label`: labels with equal classes have identical
  /// posting lists. Classes are numbered 0.. by ascending smallest member
  /// label. kNoClass for a label that never occurs.
  static constexpr uint32_t kNoClass = 0xffffffffu;
  uint32_t TwinClass(LabelId label) const {
    return label < class_of_.size() ? class_of_[label] : kNoClass;
  }

  /// The posting list for `label`; empty if the label never occurs.
  const PostingList& Find(LabelId label) const {
    const uint32_t twin_class = TwinClass(label);
    return twin_class == kNoClass ? kEmpty : lists_[twin_class];
  }

  /// |I[label]|, used for the upper bounds of Section 6.2.
  size_t ListLength(LabelId label) const { return Find(label).size(); }

  /// Number of twin classes, i.e. of stored lists.
  size_t NumTwinClasses() const { return lists_.size(); }

  /// Number of labels with non-empty lists (twins counted one by one).
  size_t NumLabels() const;

  /// Resident bytes of the stored data (label -> class map, one list
  /// header and the packed words per twin class) and the postings stored
  /// (once per twin class).
  size_t MemoryBytes() const;
  size_t NumPostings() const;

  /// Adjacency join described above, written into the caller-owned `*out`
  /// (cleared first; its capacity is reused, so a scratch list makes
  /// repeated joins allocation-free in the steady state). `alive`
  /// (indexed by GraphId) filters dead graphs out of the result; pass
  /// nullptr to keep everything. `out` must alias neither input. The
  /// returned stats are fused into the join: no separate DistinctGraphs
  /// or hashing pass over `*out` is ever needed.
  static ExtendStats ExtendInto(const PostingList& current,
                                const PostingList& label_list,
                                const std::vector<char>* alive,
                                PostingList* out);

  /// Allocating convenience wrapper around ExtendInto for cold paths and
  /// tests.
  static PostingList Extend(const PostingList& current,
                            const PostingList& label_list,
                            const std::vector<char>* alive);

  /// Number of distinct graphs appearing in a sorted posting list. Hot
  /// callers get this for free from ExtendInto's fused stats.
  static size_t DistinctGraphs(const PostingList& list);

 private:
  static const PostingList kEmpty;
  std::vector<uint32_t> class_of_;  // indexed by LabelId; kNoClass if absent
  std::vector<PostingList> lists_;  // indexed by twin class
};

}  // namespace ustl

#endif  // USTL_INDEX_INVERTED_INDEX_H_
