// The serial layer replay. It re-runs one column the way a 1-thread
// GroupingEngine inside StandardizeColumn does, but through each layer's
// public entry points, so a span can sit around every call into a layer.
// It is trusted only while it reproduces the serial run exactly (group
// sequence, fingerprint, searches, expansions): that proves it does the
// same lazy work, not a preprocess-everything variant of it.
#include <algorithm>
#include <optional>

#include "bench.h"
#include "consolidate/truth_discovery.h"
#include "dsl/parser.h"
#include "dsl/program.h"
#include "graph/graph_builder.h"
#include "graph/term_scorer.h"
#include "grouping/graph_set.h"
#include "grouping/grouping.h"
#include "grouping/incremental.h"
#include "index/inverted_index.h"
#include "pipeline/pipeline.h"
#include "replace/replacement_store.h"

namespace ustl {
namespace bench_e2e {
namespace {

// The serial GroupingEngine (grouping.cc) with every layer call spanned:
// a lazy k-way merge over structure partitions, refining one partition
// at a time in descending-hint order.
class ReplayGrouper {
 public:
  ReplayGrouper(const std::vector<StringPair>& pairs,
                const GroupingOptions& options, SpanRecorder* spans,
                uint64_t parent, ReplayTotals* totals,
                size_t* table_index_bytes)
      : pairs_(pairs),
        options_(options),
        spans_(spans),
        parent_(parent),
        totals_(totals),
        table_index_bytes_(table_index_bytes) {
    {
      ScopedSpan span(spans_, "graph.scorer", parent_);
      for (const StringPair& pair : pairs_) {
        corpus_.Add(pair.lhs);
        corpus_.Add(pair.rhs);
      }
    }
    ScopedSpan span(spans_, "grouping.partition", parent_);
    for (auto& [structure, indices] : PartitionByStructure(pairs_, true)) {
      Sub sub;
      sub.structure = structure;
      sub.indices = std::move(indices);
      subs_.push_back(std::move(sub));
    }
  }

  std::optional<Group> Next(uint64_t next_span) {
    while (true) {
      Sub* best = nullptr;
      int best_size = 0;
      for (Sub& sub : subs_) {
        if (sub.exhausted || sub.engine == nullptr ||
            !sub.engine->HasPeeked()) {
          continue;
        }
        const std::optional<ReplacementGroup>& peek = sub.engine->Peek();
        if (!peek.has_value()) {
          sub.exhausted = true;
          continue;
        }
        const int size = static_cast<int>(peek->members.size());
        if (best == nullptr || size > best_size ||
            (size == best_size && sub.indices.size() > best->indices.size())) {
          best = &sub;
          best_size = size;
        }
      }
      std::vector<Sub*> candidates;
      for (Sub& sub : subs_) {
        if (sub.exhausted) continue;
        if (sub.engine != nullptr && sub.engine->HasPeeked()) continue;
        const int hint = Hint(sub);
        if (hint < 1 || hint < best_size) continue;
        if (best != nullptr && hint == best_size) {
          if (sub.indices.size() < best->indices.size()) continue;
          if (sub.indices.size() == best->indices.size() && &sub > best) {
            continue;
          }
        }
        candidates.push_back(&sub);
      }
      if (!candidates.empty()) {
        // A serial engine refines one partition per wave: the one with
        // the highest hint (ties keep partition order).
        std::stable_sort(candidates.begin(), candidates.end(),
                         [this](Sub* a, Sub* b) { return Hint(*a) > Hint(*b); });
        Sub* target = candidates.front();
        if (target->engine == nullptr) Preprocess(target, next_span);
        if (!target->engine->Peek().has_value()) target->exhausted = true;
        continue;
      }
      if (best == nullptr) return std::nullopt;
      const ReplacementGroup& peek = *best->engine->Peek();
      Group group;
      group.pivot = peek.pivot;
      group.structure = best->structure;
      const Program program = Program::FromPath(group.pivot, *best->interner);
      group.program = SerializeProgram(program);
      for (GraphId g : peek.members) {
        group.member_pair_indices.push_back(best->indices[g]);
      }
      if (!group.member_pair_indices.empty()) {
        group.pure_constant = !group.pivot.empty();
        for (LabelId label : group.pivot) {
          if (best->interner->Get(label).kind() !=
              StringFn::Kind::kConstantStr) {
            group.pure_constant = false;
            break;
          }
        }
        const StringPair& first = pairs_[group.member_pair_indices[0]];
        group.constant_coverage = program.ConstantCoverage(first.lhs, first.rhs);
      }
      best->engine->ConsumePeeked();
      return group;
    }
  }

  IncrementalStats stats() const {
    IncrementalStats out;
    for (const Sub& sub : subs_) {
      if (sub.engine == nullptr) continue;
      out.searches += sub.engine->stats().searches;
      out.expansions += sub.engine->stats().expansions;
    }
    return out;
  }

  bool consistent() const { return consistent_; }

 private:
  struct Sub {
    std::string structure;
    std::vector<size_t> indices;
    std::unique_ptr<LabelInterner> interner;
    std::unique_ptr<FrequencyTermScorer> scorer;
    std::unique_ptr<IncrementalEngine> engine;
    bool exhausted = false;
  };

  int Hint(const Sub& sub) const {
    if (sub.exhausted) return 0;
    if (sub.engine == nullptr) return static_cast<int>(sub.indices.size());
    return sub.engine->UpperHint();
  }

  void Preprocess(Sub* sub, uint64_t parent) {
    std::vector<StringPair> selected;
    selected.reserve(sub->indices.size());
    for (size_t i : sub->indices) selected.push_back(pairs_[i]);
    sub->interner = std::make_unique<LabelInterner>();
    GraphBuilderOptions graph_options = options_.graph;
    {
      ScopedSpan span(spans_, "graph.scorer", parent);
      sub->scorer = std::make_unique<FrequencyTermScorer>(&corpus_);
      for (const StringPair& pair : selected) {
        sub->scorer->AddStructureString(pair.lhs);
        sub->scorer->AddStructureString(pair.rhs);
      }
    }
    graph_options.scorer = sub->scorer.get();
    GraphBuilder builder(graph_options, sub->interner.get());
    std::vector<GraphBuilder::BuildRequest> requests;
    requests.reserve(selected.size());
    for (const StringPair& pair : selected) {
      requests.push_back({pair.lhs, pair.rhs});
    }
    Result<std::vector<TransformationGraph>> graphs = [&] {
      ScopedSpan span(spans_, "graph.build", parent);
      return builder.BuildBatch(requests, nullptr);
    }();
    USTL_CHECK(graphs.ok());
    IndexBuildOptions index_options;
    index_options.codec = options_.index_codec;
    index_options.block = options_.block_postings;
    size_t postings = 0;
    {
      ScopedSpan span(spans_, "index.build", parent);
      InvertedIndex index =
          InvertedIndex::Build(graphs.value(), nullptr, 0,
                               sub->interner->size(), index_options);
      postings = index.NumPostings();
      *table_index_bytes_ += index.MemoryBytes();
    }
    totals_->graphs += graphs.value().size();
    totals_->labels += sub->interner->size();
    totals_->postings += postings;
    // IncrementalEngine only takes a GraphSet, whose one constructor
    // builds graphs and index again. The interner already holds every
    // label, so the second build assigns the same ids; its time is the
    // benchmark's own cost, kept apart under its own span name.
    std::optional<GraphSet> set;
    {
      ScopedSpan span(spans_, "replay.graph_set", parent);
      Result<GraphSet> built =
          GraphSet::Build(selected, builder, nullptr, index_options);
      USTL_CHECK(built.ok());
      set.emplace(std::move(built).value());
    }
    consistent_ = consistent_ && set->size() == graphs.value().size() &&
                  set->index().NumPostings() == postings;
    IncrementalOptions inc;
    inc.max_path_len = options_.max_path_len;
    inc.max_expansions_per_search = options_.max_expansions_per_search;
    inc.sample_size = options_.pivot_sample_size;
    inc.sample_seed = options_.pivot_sample_seed;
    inc.reuse_search_results = options_.reuse_search_results;
    inc.adaptive_wave_sizing = options_.adaptive_wave_sizing;
    sub->engine = std::make_unique<IncrementalEngine>(std::move(*set), inc,
                                                      nullptr);
  }

  const std::vector<StringPair>& pairs_;
  GroupingOptions options_;
  SpanRecorder* spans_;
  uint64_t parent_;
  ReplayTotals* totals_;
  size_t* table_index_bytes_;
  CorpusFrequency corpus_;
  std::vector<Sub> subs_;
  bool consistent_ = true;
};

// Replays one table; returns "" when it matched the serial run, else
// what differed.
std::string ReplayTable(const BenchTable& input, VerificationOracle* oracle,
                        const ColumnRunResult& expected,
                        const std::string& expected_fingerprint,
                        SpanRecorder* spans, ReplayTotals* totals) {
  const FrameworkOptions framework = BenchFramework();
  ScopedSpan table_span(spans, "table");
  const uint64_t parent = table_span.id();
  std::optional<ReplacementStore> store;
  {
    ScopedSpan span(spans, "replace.candidates", parent);
    store.emplace(input.table.ExtractColumn(0), framework.candidates);
  }
  totals->pairs += store->num_pairs();
  size_t index_bytes = 0;
  ReplayGrouper grouper(store->pairs(), framework.grouping, spans, parent,
                        totals, &index_bytes);

  std::string mismatch;
  size_t presented = 0;
  size_t edits = 0;
  while (presented < framework.budget_per_column) {
    std::optional<Group> group;
    {
      ScopedSpan span(spans, "grouping.search", parent);
      group = grouper.Next(span.id());
    }
    if (!group.has_value()) break;
    if (framework.skip_constant_pivot_groups && group->pure_constant) continue;
    if (group->constant_coverage > framework.max_constant_coverage) continue;
    if (framework.skip_dead_groups) {
      bool any_live = false;
      for (size_t pair_index : group->member_pair_indices) {
        any_live = any_live || !store->occurrences(pair_index).empty();
      }
      if (!any_live) continue;
    }
    std::vector<StringPair> group_pairs;
    for (size_t pair_index : group->member_pair_indices) {
      group_pairs.push_back(store->pair(pair_index));
    }
    Verdict verdict;
    {
      ScopedSpan span(spans, "consolidate.verify", parent);
      verdict = oracle->Verify(group_pairs);
    }
    size_t group_edits = 0;
    if (verdict.approved) {
      ++totals->approved;
      ScopedSpan span(spans, "replace.apply", parent);
      for (size_t pair_index : group->member_pair_indices) {
        group_edits += verdict.direction == ReplaceDirection::kLhsToRhs
                           ? store->Apply(pair_index)
                           : store->ApplyReverse(pair_index);
      }
    }
    edits += group_edits;
    if (mismatch.empty()) {
      const bool same =
          presented < expected.trace.size() &&
          expected.trace[presented].program == group->program &&
          expected.trace[presented].size == group->size() &&
          expected.trace[presented].approved == verdict.approved &&
          expected.trace[presented].direction == verdict.direction &&
          expected.trace[presented].edits == group_edits;
      if (!same) mismatch = "group " + std::to_string(presented + 1);
    }
    ++presented;
  }
  totals->questions += presented;
  totals->edits += edits;
  totals->max_table_index_bytes =
      std::max(totals->max_table_index_bytes, index_bytes);

  Table output = input.table;
  output.StoreColumn(0, store->column());
  std::vector<GoldenRecord> golden;
  {
    ScopedSpan span(spans, "consolidate.fuse", parent);
    golden = MajorityConsensus(output);
  }
  const IncrementalStats stats = grouper.stats();
  totals->searches += stats.searches;
  totals->expansions += stats.expansions;

  if (!mismatch.empty()) return mismatch;
  if (presented != expected.groups_presented) return "groups presented";
  if (!grouper.consistent()) return "graph set differs from the layer calls";
  if (FingerprintConsolidation(output, golden) != expected_fingerprint) {
    return "fingerprint";
  }
  if (stats.searches != expected.grouping.searches) {
    return "searches " + std::to_string(stats.searches) + " vs " +
           std::to_string(expected.grouping.searches);
  }
  if (stats.expansions != expected.grouping.expansions) {
    return "expansions " + std::to_string(stats.expansions) + " vs " +
           std::to_string(expected.grouping.expansions);
  }
  return "";
}

}  // namespace

ReplayTotals ReplayTables(const std::vector<BenchTable>& tables,
                          const UnionTruth& truth,
                          const std::vector<ColumnRunResult>& expected,
                          const std::vector<std::string>& expected_fingerprints,
                          SpanRecorder* spans) {
  ReplayTotals totals;
  std::unique_ptr<SimulatedOracle> oracle = truth.MakeOracle();
  for (size_t i = 0; i < tables.size(); ++i) {
    const std::string mismatch =
        ReplayTable(tables[i], oracle.get(), expected[i],
                    expected_fingerprints[i], spans, &totals);
    if (!mismatch.empty()) {
      if (totals.mismatches == 0) {
        totals.mismatch = "table " + std::to_string(i) + ": " + mismatch;
      }
      ++totals.mismatches;
    }
  }
  return totals;
}

}  // namespace bench_e2e
}  // namespace ustl
