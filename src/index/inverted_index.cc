#include "index/inverted_index.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/status.h"

namespace ustl {

const PostingList InvertedIndex::kEmpty;

namespace {

constexpr LabelId kNoLabel = 0xffffffffu;

}  // namespace

InvertedIndex InvertedIndex::Build(
    const std::vector<TransformationGraph>& graphs, ThreadPool* pool,
    size_t num_shards, size_t num_labels_hint,
    const IndexBuildOptions& /*build_options*/) {
  InvertedIndex index;
  // Field-width guards of the packed layout: graph ids fit 32 bits, node
  // ids 16. One cheap check per graph, kept in release builds because the
  // limits are input-dependent (a >64KiB target would silently corrupt
  // packed postings otherwise).
  USTL_CHECK(graphs.size() <= static_cast<size_t>(Posting::kMaxGraph) + 1);
  for (const TransformationGraph& graph : graphs) {
    USTL_CHECK(graph.num_nodes() <= Posting::kMaxNode);
  }

  // Label-id bound for the per-label arrays below. It comes from the
  // interner when the caller knows it, else from one scan over the graphs
  // (parallel over graphs; reduced in index order).
  size_t num_labels = num_labels_hint;
  if (num_labels == 0) {
    std::vector<size_t> bounds =
        ParallelMap<size_t>(pool, graphs.size(), [&](size_t g) {
          size_t bound = 0;
          const TransformationGraph& graph = graphs[g];
          for (int from = 1; from <= graph.num_nodes(); ++from) {
            for (const GraphEdge& edge : graph.edges_from(from)) {
              for (LabelId label : edge.labels) {
                bound = std::max(bound, static_cast<size_t>(label) + 1);
              }
            }
          }
          return bound;
        });
    for (size_t bound : bounds) num_labels = std::max(num_labels, bound);
  }
  if (num_labels == 0) return index;

  size_t shards = num_shards;
  if (shards == 0) {
    // One shard per pool thread; nested calls (already on a pool worker)
    // would run the shards serially and only pay the per-shard scan S
    // times over, so they stay single-shard.
    shards = pool != nullptr && !pool->InWorkerThread()
                 ? static_cast<size_t>(pool->num_threads())
                 : 1;
    // Every shard walks ALL graphs twice (count + fill) and only filters
    // by label range, so S shards cost ~S serial scans split over the
    // pool — a wash at best, and a regression once the task overhead
    // outweighs the posting writes (0.39x on a 4.8k-label input, see
    // BENCH_2026-07-31_posting_kernel.json). Small label ranges take the
    // serial path; explicit num_shards requests are honored as-is (the
    // bit-identity sweeps in tests rely on that).
    if (num_labels < kAutoShardMinLabels) shards = 1;
  }
  shards = std::max<size_t>(1, std::min(shards, num_labels));

  // Each shard owns the contiguous label range [lo, hi) and counts, then
  // fills, only those labels, walking the graphs in the same (graph asc,
  // from asc, to asc, label asc) order as a serial build would. Shards
  // touch disjoint entries, so this is scheduling-only parallelism and
  // the result is bit-identical for any shard count. Every label's
  // postings land in one flat label-major buffer (label l owns
  // flat[offsets[l], offsets[l + 1])), so the fill allocates once instead
  // of once per label, and only the twin-class leaders are copied out.
  std::vector<size_t> offsets(num_labels + 1, 0);
  ParallelFor(pool, shards, [&](size_t s) {
    const size_t lo = num_labels * s / shards;
    const size_t hi = num_labels * (s + 1) / shards;
    for (const TransformationGraph& graph : graphs) {
      for (int from = 1; from <= graph.num_nodes(); ++from) {
        for (const GraphEdge& edge : graph.edges_from(from)) {
          for (LabelId label : edge.labels) {
            // A hint below the real maximum would silently drop every
            // posting of the labels past it; catch that contract break in
            // debug builds.
            USTL_DCHECK(static_cast<size_t>(label) < num_labels);
            if (label >= lo && label < hi) ++offsets[label + 1];
          }
        }
      }
    }
  });
  for (size_t label = 0; label < num_labels; ++label) {
    offsets[label + 1] += offsets[label];
  }
  std::vector<Posting> flat(offsets[num_labels]);
  std::vector<uint64_t> hashes(num_labels, kPostingHashSeed);
  ParallelFor(pool, shards, [&](size_t s) {
    const size_t lo = num_labels * s / shards;
    const size_t hi = num_labels * (s + 1) / shards;
    std::vector<size_t> cursor(offsets.begin() + lo, offsets.begin() + hi);
    for (GraphId g = 0; g < graphs.size(); ++g) {
      const TransformationGraph& graph = graphs[g];
      for (int from = 1; from <= graph.num_nodes(); ++from) {
        for (const GraphEdge& edge : graph.edges_from(from)) {
          for (LabelId label : edge.labels) {
            if (label >= lo && label < hi) {
              flat[cursor[label - lo]++] = Posting(g, from, edge.to);
            }
          }
        }
      }
    }
    // Iteration order above is (graph asc, from asc, to asc), which is
    // the posting order; no per-list sort needed. Debug builds assert it —
    // the scan is O(total postings), so it stays out of release builds.
    // The twin grouping below keys on each list's content hash, taken
    // here while the shard's postings are still warm.
    for (size_t label = lo; label < hi; ++label) {
      USTL_DCHECK(std::is_sorted(flat.begin() + offsets[label],
                                 flat.begin() + offsets[label + 1]));
      for (size_t k = offsets[label]; k < offsets[label + 1]; ++k) {
        hashes[label] ^= flat[k].bits();
        hashes[label] *= kPostingHashPrime;
      }
    }
  });
  auto list_begin = [&](size_t label) { return flat.begin() + offsets[label]; };
  auto list_end = [&](size_t label) {
    return flat.begin() + offsets[label + 1];
  };

  // Canonicalize the layout: trailing empty lists (possible when the hint
  // over-estimates the largest used label) are trimmed, so hint and scan
  // paths produce identical indexes.
  size_t used = num_labels;
  while (used > 0 && offsets[used] == offsets[used - 1]) --used;

  // Twin classes: labels whose lists are identical sit on exactly the
  // same edges of every graph. Labels are visited in ascending order and
  // looked up by content hash in a flat open-addressing table of class
  // leaders; a full compare confirms a hit, so a hash collision only
  // costs a probe. The first label of a class is its leader, and classes
  // are numbered in leader order. (A node-based hash map grouped the
  // same classes at ~1.7x the build time.)
  index.class_of_.assign(used, kNoClass);
  // The slot folds the hash's high half into its low half: FNV's multiply
  // carries input bits upward only, so the low bits alone ignore graph
  // ids, and the top bits alone cluster lists of one graph.
  int slot_bits = 4;
  while ((size_t{1} << slot_bits) < 2 * used) ++slot_bits;
  const size_t slots = size_t{1} << slot_bits;
  std::vector<LabelId> table(slots, kNoLabel);
  for (size_t label = 0; label < used; ++label) {
    if (offsets[label + 1] == offsets[label]) continue;
    size_t slot = static_cast<size_t>(hashes[label] ^ (hashes[label] >> 32)) &
                  (slots - 1);
    while (table[slot] != kNoLabel) {
      const LabelId leader = table[slot];
      if (hashes[leader] == hashes[label] &&
          std::equal(list_begin(leader), list_end(leader), list_begin(label),
                     list_end(label))) {
        break;
      }
      slot = (slot + 1) & (slots - 1);
    }
    if (table[slot] == kNoLabel) {
      table[slot] = static_cast<LabelId>(label);
      index.class_of_[label] = static_cast<uint32_t>(index.lists_.size());
      index.lists_.emplace_back(list_begin(label), list_end(label));
    } else {
      index.class_of_[label] = index.class_of_[table[slot]];
    }
  }
  index.lists_.shrink_to_fit();
  return index;
}

size_t InvertedIndex::NumLabels() const {
  size_t count = 0;
  for (uint32_t twin_class : class_of_) count += twin_class != kNoClass;
  return count;
}

size_t InvertedIndex::MemoryBytes() const {
  size_t bytes = class_of_.size() * sizeof(uint32_t) +
                 lists_.size() * sizeof(PostingList);
  for (const PostingList& list : lists_) {
    bytes += list.size() * sizeof(Posting);
  }
  return bytes;
}

size_t InvertedIndex::NumPostings() const {
  size_t count = 0;
  for (const PostingList& list : lists_) count += list.size();
  return count;
}

namespace {

// First index >= i whose posting's graph id is >= g (galloping: doubling
// probe then binary search). Keeps the merge join linear on balanced
// inputs and logarithmic when one list is much shorter than the other —
// the common shape once sampling or deep paths shrink the current list.
size_t GallopTo(const Posting* list, size_t n, size_t i, GraphId g) {
  if (i >= n || list[i].graph() >= g) return i;
  size_t lo = i;  // invariant: list[lo].graph() < g
  size_t step = 1;
  size_t hi = i + step;
  while (hi < n && list[hi].graph() < g) {
    lo = hi;
    step <<= 1;
    hi = lo + step;
  }
  if (hi > n) hi = n;
  while (lo + 1 < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (list[mid].graph() < g) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

}  // namespace

ExtendStats InvertedIndex::ExtendInto(const PostingList& current,
                                      const PostingList& label_list,
                                      const std::vector<char>* alive,
                                      PostingList* out) {
  out->clear();
  ExtendStats stats;
  const Posting* span = label_list.data();
  const size_t n = label_list.size();
  // Merge join on graph id; within one graph, pair (a, b) x (b, c).
  size_t i = 0;
  size_t j = 0;
  while (i < current.size() && j < n) {
    const GraphId gi = current[i].graph();
    const GraphId gj = span[j].graph();
    if (gi < gj) {
      i = GallopTo(current.data(), current.size(), i, gj);
      continue;
    }
    if (gj < gi) {
      j = GallopTo(span, n, j, gi);
      continue;
    }
    if (alive != nullptr && !(*alive)[gi]) {
      while (i < current.size() && current[i].graph() == gi) ++i;
      while (j < n && span[j].graph() == gi) ++j;
      continue;
    }
    size_t i_end = i;
    while (i_end < current.size() && current[i_end].graph() == gi) ++i_end;
    size_t j_end = j;
    while (j_end < n && span[j_end].graph() == gi) ++j_end;
    // Both runs are small in practice; a nested loop keeps this simple and
    // cache-friendly.
    const size_t run_begin = out->size();
    for (size_t a = i; a < i_end; ++a) {
      for (size_t b = j; b < j_end; ++b) {
        if (current[a].end() == span[b].start()) {
          out->push_back(Posting::Join(current[a], span[b]));
        }
      }
    }
    if (out->size() > run_begin) {
      // Graph runs are emitted in ascending graph order, so sorting and
      // deduplicating each run locally (runs are tiny) leaves the whole
      // list sorted + unique — no full-list sort pass. Distinct count and
      // content hash fold in here, while the run is cache-hot.
      if (out->size() - run_begin > 1) {
        std::sort(out->begin() + run_begin, out->end());
        out->erase(std::unique(out->begin() + run_begin, out->end()),
                   out->end());
      }
      ++stats.distinct_graphs;
      for (size_t k = run_begin; k < out->size(); ++k) {
        stats.hash ^= (*out)[k].bits();
        stats.hash *= kPostingHashPrime;
      }
    }
    i = i_end;
    j = j_end;
  }
  return stats;
}

PostingList InvertedIndex::Extend(const PostingList& current,
                                  const PostingList& label_list,
                                  const std::vector<char>* alive) {
  PostingList out;
  ExtendInto(current, label_list, alive, &out);
  return out;
}

size_t InvertedIndex::DistinctGraphs(const PostingList& list) {
  size_t count = 0;
  GraphId prev = 0;
  bool first = true;
  for (const Posting& p : list) {
    if (first || p.graph() != prev) {
      ++count;
      prev = p.graph();
      first = false;
    }
  }
  return count;
}

}  // namespace ustl
