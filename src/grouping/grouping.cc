#include "grouping/grouping.h"

#include <algorithm>
#include <limits>
#include <map>

#include "common/timer.h"
#include "dsl/parser.h"
#include "dsl/program.h"
#include "obs/trace.h"
#include "text/structure.h"

namespace ustl {

std::vector<std::pair<std::string, std::vector<size_t>>>
PartitionByStructure(const std::vector<StringPair>& pairs,
                     bool structure_refinement) {
  std::map<std::string, std::vector<size_t>> partition;
  for (size_t i = 0; i < pairs.size(); ++i) {
    std::string key = structure_refinement
                          ? ReplacementStructure(pairs[i].lhs, pairs[i].rhs)
                          : std::string();
    partition[key].push_back(i);
  }
  std::vector<std::pair<std::string, std::vector<size_t>>> out;
  out.reserve(partition.size());
  for (auto& [key, indices] : partition) {
    out.emplace_back(key, std::move(indices));
  }
  return out;
}

namespace {

// Builds the per-structure-group scorer (Appendix E) fed with the group's
// strings; `global` is the shared whole-input frequency table.
std::unique_ptr<FrequencyTermScorer> MakeScorer(
    const std::vector<StringPair>& pairs, const std::vector<size_t>& indices,
    const CorpusFrequency* global) {
  auto scorer = std::make_unique<FrequencyTermScorer>(global);
  for (size_t i : indices) {
    scorer->AddStructureString(pairs[i].lhs);
    scorer->AddStructureString(pairs[i].rhs);
  }
  return scorer;
}

std::vector<StringPair> SelectPairs(const std::vector<StringPair>& pairs,
                                    const std::vector<size_t>& indices) {
  std::vector<StringPair> out;
  out.reserve(indices.size());
  for (size_t i : indices) out.push_back(pairs[i]);
  return out;
}

// Fills the pure_constant and constant_coverage annotations of a group
// whose members are already resolved; `first` is any member pair (the
// pivot program is consistent with every member, so one representative
// suffices).
void AnnotateGroup(const LabelInterner& interner, const StringPair& first,
                   Group* group) {
  group->pure_constant = !group->pivot.empty();
  for (LabelId label : group->pivot) {
    if (interner.Get(label).kind() != StringFn::Kind::kConstantStr) {
      group->pure_constant = false;
      break;
    }
  }
  group->constant_coverage = Program::FromPath(group->pivot, interner)
                                 .ConstantCoverage(first.lhs, first.rhs);
}

}  // namespace

std::vector<Group> GroupAllUpfront(const std::vector<StringPair>& pairs,
                                   const GroupingOptions& options,
                                   bool early_termination, UpfrontStats* stats,
                                   uint64_t max_expansions) {
  Timer timer;
  CorpusFrequency global_corpus;
  if (options.use_term_scorer) {
    for (const StringPair& pair : pairs) {
      global_corpus.Add(pair.lhs);
      global_corpus.Add(pair.rhs);
    }
  }

  std::unique_ptr<ThreadPool> pool;
  if (ResolveThreadCount(options.num_threads) > 1) {
    pool = std::make_unique<ThreadPool>(ResolveThreadCount(options.num_threads));
  }

  // Structure groups are disjoint, so each partition is grouped
  // independently (its own interner, scorer and graphs) and results are
  // concatenated in partition order — the same order, stats and groups the
  // serial loop produces, whatever the thread count.
  auto partitions = PartitionByStructure(pairs, options.structure_refinement);
  struct PartitionOutput {
    std::vector<Group> groups;
    OneShotStats stats;
  };
  std::vector<PartitionOutput> outputs =
      ParallelMap<PartitionOutput>(pool.get(), partitions.size(), [&](size_t p) {
        auto& [structure, indices] = partitions[p];
        PartitionOutput out;
        LabelInterner interner;
        std::unique_ptr<FrequencyTermScorer> scorer;
        GraphBuilderOptions graph_options = options.graph;
        if (options.use_term_scorer && options.structure_refinement) {
          scorer = MakeScorer(pairs, indices, &global_corpus);
          graph_options.scorer = scorer.get();
        }
        GraphBuilder builder(graph_options, &interner);
        // The pool also shards the index build inside a partition; nested
        // use from a worker thread runs inline (single-shard).
        Result<GraphSet> set = GraphSet::Build(SelectPairs(pairs, indices),
                                               builder, pool.get());
        USTL_CHECK(set.ok());

        OneShotOptions oneshot;
        oneshot.early_termination = early_termination;
        oneshot.max_path_len = options.max_path_len;
        oneshot.max_expansions = max_expansions;
        // The pool also wave-parallelizes the pivot searches inside the
        // partition; when this task itself landed on a pool worker the
        // nested fan-out degrades to the serial scan, with identical
        // groups either way.
        std::vector<ReplacementGroup> local =
            UnsupervisedGrouping(*set, oneshot, &out.stats, pool.get());
        for (ReplacementGroup& rg : local) {
          Group group;
          group.pivot = std::move(rg.pivot);
          group.structure = structure;
          group.program =
              SerializeProgram(Program::FromPath(group.pivot, interner));
          group.member_pair_indices.reserve(rg.members.size());
          for (GraphId g : rg.members) {
            group.member_pair_indices.push_back(indices[g]);
          }
          if (!group.member_pair_indices.empty()) {
            AnnotateGroup(interner, pairs[group.member_pair_indices[0]],
                          &group);
          }
          out.groups.push_back(std::move(group));
        }
        return out;
      });

  std::vector<Group> groups;
  OneShotStats search_stats;
  for (PartitionOutput& out : outputs) {
    for (Group& group : out.groups) groups.push_back(std::move(group));
    search_stats.expansions += out.stats.expansions;
    search_stats.truncated = search_stats.truncated || out.stats.truncated;
  }

  std::stable_sort(groups.begin(), groups.end(),
                   [](const Group& a, const Group& b) {
                     return a.size() > b.size();
                   });
  if (stats != nullptr) {
    stats->seconds = timer.ElapsedSeconds();
    stats->expansions = search_stats.expansions;
    stats->truncated = search_stats.truncated;
    stats->num_groups = groups.size();
  }
  return groups;
}

namespace {

// Content hash of everything that shapes a GroupingEngine's graphs and
// searches except the structure key: the graph-construction options plus
// the column's full ordered pair list (the Appendix-E scorer is built
// from the whole column, so every structure group depends on all of it).
// Output-invariant knobs (thread counts, reuse/caching toggles, budgets —
// sharing is disabled under finite budgets anyway) stay out of the key so
// differently-configured but identically-grouping runs still share.
SearchCacheKey HashSearchContext(const GroupingOptions& options,
                                 const std::vector<StringPair>& pairs) {
  SearchKeyHasher hasher;
  const GraphBuilderOptions& graph = options.graph;
  hasher.U64(static_cast<uint64_t>(graph.enable_affix) |
             static_cast<uint64_t>(graph.enable_substr) << 1 |
             static_cast<uint64_t>(graph.enable_constants) << 2 |
             static_cast<uint64_t>(graph.position_static_order) << 3 |
             static_cast<uint64_t>(graph.token_aligned_labels) << 4 |
             static_cast<uint64_t>(options.use_term_scorer) << 5 |
             static_cast<uint64_t>(options.structure_refinement) << 6);
  hasher.U64(static_cast<uint64_t>(graph.max_input_len));
  hasher.U64(static_cast<uint64_t>(graph.max_output_len));
  hasher.U64(static_cast<uint64_t>(graph.max_substr_labels_per_edge));
  hasher.U64(static_cast<uint64_t>(options.max_path_len));
  hasher.U64(pairs.size());
  hasher.Pairs(pairs);
  return hasher.Finish();
}

constexpr uint64_t kNoLimit = std::numeric_limits<uint64_t>::max();

}  // namespace

GroupingEngine::GroupingEngine(std::vector<StringPair> pairs,
                               GroupingOptions options)
    : pairs_(std::move(pairs)), options_(options) {
  if (ResolveThreadCount(options_.num_threads) > 1) {
    pool_ =
        std::make_unique<ThreadPool>(ResolveThreadCount(options_.num_threads));
  }
  if (options_.use_term_scorer) {
    for (const StringPair& pair : pairs_) {
      global_corpus_.Add(pair.lhs);
      global_corpus_.Add(pair.rhs);
    }
  }
  for (auto& [structure, indices] :
       PartitionByStructure(pairs_, options_.structure_refinement)) {
    SubGroup sub;
    sub.structure = structure;
    sub.pair_indices = std::move(indices);
    subs_.push_back(std::move(sub));
  }
  // Cross-engine sharing applies exactly where cross-round reuse does
  // (exact mode); hashing the column costs one pass, so skip it when the
  // configuration can never use the key.
  if (options_.shared_search_cache != nullptr &&
      options_.reuse_search_results && options_.pivot_sample_size == 0 &&
      options_.max_expansions_per_search == kNoLimit &&
      options_.max_total_expansions == kNoLimit) {
    search_context_ = HashSearchContext(options_, pairs_);
  }
}

void GroupingEngine::Preprocess(SubGroup* sub) {
  if (sub->engine != nullptr) return;
  // graph_build covers scorer + graph/index construction for this
  // structure group; spans from concurrent RefineBatch workers interleave
  // safely (TraceContext is thread-safe, spans close independently).
  ScopedSpan build_span(options_.trace, options_.trace_parent, "graph_build",
                        sub->structure);
  build_span.AddAttr("pairs", static_cast<int64_t>(sub->pair_indices.size()));
  sub->interner = std::make_unique<LabelInterner>();
  GraphBuilderOptions graph_options = options_.graph;
  if (options_.use_term_scorer && options_.structure_refinement) {
    sub->scorer = MakeScorer(pairs_, sub->pair_indices, &global_corpus_);
    graph_options.scorer = sub->scorer.get();
  }
  GraphBuilder builder(graph_options, sub->interner.get());
  // Graphs are built on this thread; the pool shards the index and the
  // move table within the group. When this Preprocess itself runs on a
  // pool worker (RefineBatch), the nested calls degrade to the serial
  // loop.
  Result<GraphSet> set = GraphSet::Build(
      SelectPairs(pairs_, sub->pair_indices), builder, pool_.get());
  USTL_CHECK(set.ok());
  IncrementalOptions inc_options;
  inc_options.max_path_len = options_.max_path_len;
  inc_options.max_expansions_per_search = options_.max_expansions_per_search;
  inc_options.sample_size = options_.pivot_sample_size;
  inc_options.sample_seed = options_.pivot_sample_seed;
  inc_options.reuse_search_results = options_.reuse_search_results;
  inc_options.adaptive_wave_sizing = options_.adaptive_wave_sizing;
  inc_options.cancel = options_.cancel;
  inc_options.trace = options_.trace;
  inc_options.trace_parent = options_.trace_parent;
  if (search_context_.valid()) {
    // Scope the shared context hash to this structure group; the engine
    // double-checks exact-mode eligibility itself.
    SearchKeyHasher hasher;
    hasher.U64(search_context_.lo);
    hasher.U64(search_context_.hi);
    hasher.Str(sub->structure);
    inc_options.shared_cache = options_.shared_search_cache;
    inc_options.shared_cache_key = hasher.Finish();
  }
  // The expansion budget is shared across structure groups: hand each
  // newly preprocessed engine whatever is left.
  if (options_.max_total_expansions !=
      std::numeric_limits<uint64_t>::max()) {
    uint64_t spent = 0;
    for (const SubGroup& other : subs_) {
      if (other.engine != nullptr) spent += other.engine->stats().expansions;
    }
    inc_options.max_total_expansions =
        options_.max_total_expansions > spent
            ? options_.max_total_expansions - spent
            : 0;
  }
  // The engine borrows the pool for its exact-mode wave scan; when its
  // Peek runs on a pool worker (RefineBatch fanning several sub-groups
  // out) the waves degrade to the serial scan instead of nesting.
  sub->engine = std::make_unique<IncrementalEngine>(std::move(set).value(),
                                                    inc_options, pool_.get());
}

void GroupingEngine::RefineBatch(const std::vector<SubGroup*>& candidates) {
  // Disjoint structure groups: each task touches only its own SubGroup and
  // shared const state (pairs_, options_, global_corpus_). Peek() is pulled
  // into the task so the pivot searches — the expensive part — overlap too.
  ParallelFor(pool_.get(), candidates.size(), [&](size_t i) {
    SubGroup* sub = candidates[i];
    Preprocess(sub);
    sub->engine->Peek();
  });
  for (SubGroup* sub : candidates) {
    if (!sub->engine->Peek().has_value()) sub->exhausted = true;
  }
}

int GroupingEngine::SubHint(const SubGroup& sub) const {
  if (sub.exhausted) return 0;
  if (sub.engine == nullptr) {
    // Section 7.2: before preprocessing, the structure-group size is the
    // upper bound for every replacement in it.
    return static_cast<int>(sub.pair_indices.size());
  }
  return sub.engine->UpperHint();
}

std::optional<Group> GroupingEngine::Next() {
  // Lazy k-way merge over the disjoint structure groups: keep at most one
  // candidate group cached per sub-group, and refine (preprocess + peek)
  // sub-groups in descending-hint order until no unpeeked sub-group could
  // reach the best cached candidate.
  //
  // The winner rule — largest cached group, ties to the lowest sub index,
  // with refinement required for every unpeeked sub whose hint *reaches*
  // (not exceeds) the best size — is path-independent: once no unpeeked
  // sub can tie the best, every sub that could win or steal the tie has
  // been peeked, so the returned group is the global (max size, min index)
  // over alive sub-groups no matter which subs earlier calls happened to
  // refine. That is what makes the group sequence bit-identical for any
  // thread count and wave size.
  while (true) {
    options_.cancel.Check();
    // Best cached candidate across sub-groups. Ties prefer the larger
    // structure group (the sub the lazy hint order would have refined and
    // returned first), then the lower sub index; both keys are static, so
    // the choice never depends on which subs happen to be peeked.
    SubGroup* best_sub = nullptr;
    int best_size = 0;
    for (SubGroup& sub : subs_) {
      if (sub.exhausted || sub.engine == nullptr || !sub.engine->HasPeeked()) {
        continue;
      }
      const std::optional<ReplacementGroup>& peek = sub.engine->Peek();
      if (!peek.has_value()) {
        sub.exhausted = true;
        continue;
      }
      int size = static_cast<int>(peek->members.size());
      if (best_sub == nullptr || size > best_size ||
          (size == best_size &&
           sub.pair_indices.size() > best_sub->pair_indices.size())) {
        best_sub = &sub;
        best_size = size;
      }
    }
    // Sub-groups without a cached candidate that could still change the
    // winner and therefore need refinement: a higher hint could beat the
    // best outright, and a hint equal to the best matters only when the
    // sub's static tie-break key (larger structure group, then lower
    // index) outranks the current best's.
    std::vector<SubGroup*> candidates;
    for (SubGroup& sub : subs_) {
      if (sub.exhausted) continue;
      if (sub.engine != nullptr && sub.engine->HasPeeked()) continue;
      const int hint = SubHint(sub);
      if (hint < 1 || hint < best_size) continue;
      if (best_sub != nullptr && hint == best_size) {
        if (sub.pair_indices.size() < best_sub->pair_indices.size()) continue;
        if (sub.pair_indices.size() == best_sub->pair_indices.size() &&
            &sub > best_sub) {
          continue;
        }
      }
      candidates.push_back(&sub);
    }
    if (!candidates.empty()) {
      // Highest hints first (stable: ties keep sub order). Refining in
      // waves keeps the engine lazy — the first wave usually raises
      // best_size enough to disqualify the remaining candidates.
      std::stable_sort(candidates.begin(), candidates.end(),
                       [this](SubGroup* a, SubGroup* b) {
                         return SubHint(*a) > SubHint(*b);
                       });
      // A finite shared expansion budget makes preprocessing
      // order-dependent (each engine receives what the previous ones
      // left), so budgeted runs refine strictly one at a time, whatever
      // the thread count.
      const bool budgeted = options_.max_total_expansions !=
                            std::numeric_limits<uint64_t>::max();
      size_t wave = budgeted || pool_ == nullptr
                        ? 1
                        : static_cast<size_t>(pool_->num_threads());
      if (wave > candidates.size()) wave = candidates.size();
      candidates.resize(wave);
      RefineBatch(candidates);
      continue;
    }
    if (best_sub == nullptr) return std::nullopt;

    const std::optional<ReplacementGroup>& peek = best_sub->engine->Peek();
    USTL_CHECK(peek.has_value());
    Group group;
    group.pivot = peek->pivot;
    group.structure = best_sub->structure;
    group.program = SerializeProgram(
        Program::FromPath(group.pivot, *best_sub->interner));
    for (GraphId g : peek->members) {
      group.member_pair_indices.push_back(best_sub->pair_indices[g]);
    }
    if (!group.member_pair_indices.empty()) {
      AnnotateGroup(*best_sub->interner,
                    pairs_[group.member_pair_indices[0]], &group);
    }
    best_sub->engine->ConsumePeeked();
    return group;
  }
}

IncrementalStats GroupingEngine::stats() const {
  IncrementalStats out;
  for (const SubGroup& sub : subs_) {
    if (sub.engine == nullptr) continue;
    const IncrementalStats& stats = sub.engine->stats();
    out.expansions += stats.expansions;
    out.joins += stats.joins;
    out.searches += stats.searches;
    out.cache_hits += stats.cache_hits;
    out.speculative_searches += stats.speculative_searches;
    out.speculative_hits += stats.speculative_hits;
    out.warm_hits += stats.warm_hits;
    out.truncated |= stats.truncated;
  }
  return out;
}

size_t GroupingEngine::RemainingCount() const {
  size_t count = 0;
  for (const SubGroup& sub : subs_) {
    if (sub.exhausted) continue;
    count += sub.engine == nullptr ? sub.pair_indices.size()
                                   : sub.engine->AliveCount();
  }
  return count;
}

}  // namespace ustl
