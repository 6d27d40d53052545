// Top-level grouping drivers. They combine structure refinement
// (Section 7.2), the Appendix-E term scorer, graph construction, and either
// the upfront UnsupervisedGrouping (OneShot / EarlyTerm) or the incremental
// top-k engine (Section 6) into the interface the consolidation framework
// consumes: "give me replacement groups, largest first".
#ifndef USTL_GROUPING_GROUPING_H_
#define USTL_GROUPING_GROUPING_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/parallel.h"
#include "graph/graph_builder.h"
#include "graph/term_scorer.h"
#include "grouping/group.h"
#include "grouping/incremental.h"
#include "grouping/oneshot.h"
#include "grouping/search_cache.h"

namespace ustl {

class TraceContext;  // obs/trace.h

/// Configuration shared by all grouping drivers.
struct GroupingOptions {
  /// Graph construction knobs (affix on/off for Figure 10, length caps...).
  /// The `scorer` field is managed internally; leave it null.
  GraphBuilderOptions graph;
  /// Maximum pivot path length theta (Section 8.2).
  int max_path_len = 6;
  /// Partition by structure before grouping (Section 7.2).
  bool structure_refinement = true;
  /// Build a FrequencyTermScorer per structure group (Appendix E). Only
  /// effective when structure_refinement is on.
  bool use_term_scorer = true;
  /// Per-search DFS expansion budget (see IncrementalOptions). Unlimited
  /// by default; set a finite budget when grouping heterogeneous inputs
  /// without structure refinement, whose label space explodes.
  uint64_t max_expansions_per_search = std::numeric_limits<uint64_t>::max();
  /// Total DFS expansion budget across the whole engine (all structure
  /// groups). See IncrementalOptions::max_total_expansions.
  uint64_t max_total_expansions = std::numeric_limits<uint64_t>::max();
  /// Appendix-E sampling: pivot counts taken over a sample of this many
  /// graphs per structure group when the group is larger. 0 = exact.
  /// See IncrementalOptions::sample_size.
  size_t pivot_sample_size = 0;
  uint64_t pivot_sample_seed = 0x5eed;
  /// Cross-round pivot-search reuse inside the incremental engines (see
  /// IncrementalOptions::reuse_search_results): a search result stays
  /// exact across consumed groups until one of its members is killed, so
  /// later rounds re-search only the graphs the last consume dirtied.
  /// Groups are byte-identical with this on or off; off only repeats
  /// searches. Ignored under sampling or finite expansion budgets.
  bool reuse_search_results = true;
  /// Adaptive wave sizing for the incremental engines' exact-mode wave
  /// scan: wave widths are sized from the observed speculation hit rate
  /// instead of the raw pool width, so a box whose hardware cannot run
  /// the wave concurrently stops paying for speculation that never pays
  /// off. Groups are byte-identical either way (statistics move). See
  /// IncrementalOptions::adaptive_wave_sizing. The upfront driver is
  /// unaffected: it searches every graph exactly once, so none of its
  /// wave work is speculative.
  bool adaptive_wave_sizing = true;
  /// Cross-engine pivot-search warm start (grouping/search_cache.h):
  /// borrowed shared cache, must outlive every engine using it, may be
  /// shared across threads. When set (and reuse_search_results applies),
  /// each structure group's epoch-0 search results are published under a
  /// content key — the grouping options that shape graphs, the full
  /// ordered pair list, the structure — and an engine whose content
  /// matches an earlier engine's (a replicated column, a repeated
  /// request) seeds its cache instead of re-searching. Byte-identical
  /// warm or cold. The pipeline and the consolidation service own one
  /// cache per run / per service; null disables sharing.
  SearchResultCache* shared_search_cache = nullptr;
  /// Inert, read by nothing (see IndexBuildOptions in
  /// index/inverted_index.h).
  IndexCodec index_codec = IndexCodec::kRaw;
  BlockPostingsOptions block_postings;
  /// Worker threads for per-structure-group preprocessing (each group's
  /// graphs are built on one thread; its index and move table use the
  /// pool) AND the pivot searches inside one structure group (wave scan,
  /// see oneshot.h / incremental.h). 0 = hardware
  /// concurrency, 1 = fully serial (the default). Structure groups are
  /// disjoint (Section 7.2) and the in-group wave scans replay the serial
  /// update rules, so groups returned are bit-identical for any thread
  /// count. Search *statistics* can differ between num_threads == 1 and
  /// > 1 (and, for > 1, between runs): concurrent refinement and wave
  /// speculation spend expansions the lazy serial order avoids, and how
  /// many depends on scheduling. When max_total_expansions is finite the
  /// engine stays lazy and serial regardless of this knob — a shared
  /// budget makes preprocessing order-dependent.
  int num_threads = 1;
  /// Cooperative cancellation (common/cancel.h), forwarded into every
  /// structure-group engine's scan loops and checked between refinement
  /// rounds; inert by default. See IncrementalOptions::cancel.
  CancelToken cancel;
  /// Per-request trace (obs/trace.h; null = untraced): each structure
  /// group's preprocessing opens a graph_build span under `trace_parent`
  /// and forwards the context into its incremental engine (search_wave
  /// spans). Observability only — never read by any decision.
  TraceContext* trace = nullptr;
  uint64_t trace_parent = 0;
};

/// Statistics of an upfront grouping run, for Figure 9.
struct UpfrontStats {
  double seconds = 0.0;
  uint64_t expansions = 0;
  bool truncated = false;
  size_t num_groups = 0;
};

/// Runs the upfront partitioner over all pairs: builds every graph, indexes
/// them per structure group, computes every pivot (with or without the
/// Algorithm-4 early terminations) and returns all groups sorted by size
/// descending. This is the paper's OneShot (early_termination = false) /
/// EarlyTerm (true).
std::vector<Group> GroupAllUpfront(const std::vector<StringPair>& pairs,
                                   const GroupingOptions& options,
                                   bool early_termination,
                                   UpfrontStats* stats,
                                   uint64_t max_expansions =
                                       std::numeric_limits<uint64_t>::max());

/// The incremental driver (Algorithm 5): structure groups are preprocessed
/// lazily, and each Next() returns the globally largest remaining group.
/// Structure groups are disjoint, so one cached candidate per group makes
/// Next() a lazy k-way merge.
class GroupingEngine {
 public:
  GroupingEngine(std::vector<StringPair> pairs, GroupingOptions options);

  /// Returns and consumes the next largest group; nullopt when exhausted.
  std::optional<Group> Next();

  /// Total replacements not yet grouped.
  size_t RemainingCount() const;

  /// Cumulative search statistics across all structure groups, aggregated
  /// on demand (so the final refinement work before an exhausted Next()
  /// is included too).
  IncrementalStats stats() const;

 private:
  struct SubGroup {
    std::string structure;
    std::vector<size_t> pair_indices;           // into pairs_
    std::unique_ptr<LabelInterner> interner;
    std::unique_ptr<FrequencyTermScorer> scorer;
    std::unique_ptr<IncrementalEngine> engine;  // null until preprocessed
    bool exhausted = false;
  };

  void Preprocess(SubGroup* sub);
  /// Preprocesses + peeks every candidate concurrently (they are disjoint;
  /// no budget sharing happens when the total budget is unlimited).
  void RefineBatch(const std::vector<SubGroup*>& candidates);
  int SubHint(const SubGroup& sub) const;

  std::vector<StringPair> pairs_;
  GroupingOptions options_;
  CorpusFrequency global_corpus_;
  std::unique_ptr<ThreadPool> pool_;  // null when running serially
  std::vector<SubGroup> subs_;
  /// Shared hash of everything except the structure key — the options
  /// that shape graph construction plus the full ordered pair list (the
  /// term scorer sees the whole column, so a structure group's graphs
  /// depend on all of it). Invalid when cross-engine sharing is off.
  SearchCacheKey search_context_;
};

/// Helper shared by the drivers and tests: partitions pair indices by the
/// replacement structure (one partition with empty key when refinement is
/// off).
std::vector<std::pair<std::string, std::vector<size_t>>>
PartitionByStructure(const std::vector<StringPair>& pairs,
                     bool structure_refinement);

}  // namespace ustl

#endif  // USTL_GROUPING_GROUPING_H_
