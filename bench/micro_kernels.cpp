// Micro-kernels: transformation-graph construction, inverted-index build
// (serial and sharded), posting-list intersection (seed vs. fused
// zero-allocation kernel), pivot search, candidate generation, and
// structure signatures. These are the inner loops behind Figure 9.
//
// Uses Google Benchmark when available (USTL_HAVE_GOOGLE_BENCHMARK); a
// minimal timer-based fallback harness below covers the subset of the API
// this file needs, so the binary always builds. Independent of either
// harness, main() ends with a posting-kernel comparison that prints JSON
// lines (seed vs. fused Extend, serial vs. sharded Build, allocations per
// join) for the bench trajectory.
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#if defined(USTL_HAVE_GOOGLE_BENCHMARK)
#include <benchmark/benchmark.h>
#else
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

// Timer-based fallback implementing the tiny subset of the Google
// Benchmark API used in this file: fixed-iteration State ranges,
// DoNotOptimize, BENCHMARK registration and a runner that calibrates the
// iteration count until a run takes long enough to time.
namespace benchmark {

class State {
 public:
  explicit State(int64_t iterations) : iterations_(iterations) {}

  // Class-type iteration value with a user-provided destructor, so
  // `for (auto _ : state)` doesn't trigger -Wunused-variable (mirrors
  // the real library's behavior).
  struct IterationValue {
    ~IterationValue() {}
  };

  class iterator {
   public:
    explicit iterator(int64_t n) : n_(n) {}
    bool operator!=(const iterator& o) const { return n_ != o.n_; }
    iterator& operator++() {
      --n_;
      return *this;
    }
    IterationValue operator*() const { return IterationValue(); }

   private:
    int64_t n_;
  };
  iterator begin() { return iterator(iterations_); }
  iterator end() { return iterator(0); }

  int64_t iterations() const { return iterations_; }
  void SetItemsProcessed(int64_t) {}
  void SetBytesProcessed(int64_t) {}

 private:
  int64_t iterations_;
};

template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct RegisteredBenchmark {
  const char* name;
  void (*fn)(State&);
};

inline std::vector<RegisteredBenchmark>& Registry() {
  static auto& registry = *new std::vector<RegisteredBenchmark>();
  return registry;
}

struct Registrar {
  Registrar(const char* name, void (*fn)(State&)) {
    Registry().push_back({name, fn});
  }
};

inline void RunAllRegistered() {
  printf("(google-benchmark not installed: timer fallback, calibrated "
         "fixed-iteration runs)\n");
  printf("%-28s %16s %12s\n", "Benchmark", "ns/iter", "iters");
  for (const RegisteredBenchmark& bench : Registry()) {
    int64_t iters = 1;
    double seconds = 0.0;
    for (;;) {
      State state(iters);
      const auto start = std::chrono::steady_clock::now();
      bench.fn(state);
      seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
      if (seconds >= 0.1 || iters >= (int64_t{1} << 28)) break;
      iters *= 4;
    }
    printf("%-28s %16.1f %12lld\n", bench.name,
           seconds * 1e9 / static_cast<double>(iters),
           static_cast<long long>(iters));
  }
}

}  // namespace benchmark

#define BENCHMARK(fn) \
  static ::benchmark::Registrar ustl_bench_registrar_##fn(#fn, fn)
#endif  // USTL_HAVE_GOOGLE_BENCHMARK

#include "bench_util.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "consolidate/fusion.h"
#include "datagen/generators.h"
#include "dsl/parser.h"
#include "graph/graph_builder.h"
#include "grouping/grouping.h"
#include "grouping/pivot_search.h"
#include "index/inverted_index.h"
#include "io/csv.h"
#include "replace/candidate_gen.h"
#include "text/alignment.h"
#include "text/structure.h"

// Global allocation counter: lets the kernel comparison report heap
// allocations per join, which is how the zero-allocation claim of
// InvertedIndex::ExtendInto is verified mechanically.
namespace {
std::atomic<int64_t> g_heap_allocations{0};
}  // namespace

// GCC flags free() inside a replaced sized operator delete as mismatched
// with the replaced operator new it can't see into; malloc/free-backed
// replacement of the whole family is well-defined, so silence it here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace ustl {
namespace {

const std::vector<StringPair>& NamePairs() {
  static const auto& pairs = *new std::vector<StringPair>{
      {"Lee, Mary", "M. Lee"},       {"Smith, James", "J. Smith"},
      {"Brown, Anna", "A. Brown"},   {"Clark, Susan", "S. Clark"},
      {"Walker, John", "J. Walker"}, {"Turner, Ruth", "R. Turner"},
      {"Street", "St"},              {"Avenue", "Ave"},
      {"Boulevard", "Blvd"},         {"Wisconsin", "WI"},
      {"9th", "9"},                  {"3rd", "3"},
  };
  return pairs;
}

void BM_GraphBuild(benchmark::State& state) {
  for (auto _ : state) {
    LabelInterner interner;
    GraphBuilder builder(GraphBuilderOptions{}, &interner);
    for (const StringPair& pair : NamePairs()) {
      benchmark::DoNotOptimize(builder.Build(pair.lhs, pair.rhs));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(NamePairs().size()));
}
BENCHMARK(BM_GraphBuild);

void BM_IndexBuild(benchmark::State& state) {
  LabelInterner interner;
  GraphBuilder builder(GraphBuilderOptions{}, &interner);
  std::vector<TransformationGraph> graphs;
  for (const StringPair& pair : NamePairs()) {
    graphs.push_back(std::move(builder.Build(pair.lhs, pair.rhs)).value());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(InvertedIndex::Build(graphs));
  }
}
BENCHMARK(BM_IndexBuild);

void BM_IndexBuildSharded(benchmark::State& state) {
  LabelInterner interner;
  GraphBuilder builder(GraphBuilderOptions{}, &interner);
  std::vector<TransformationGraph> graphs;
  for (const StringPair& pair : NamePairs()) {
    graphs.push_back(std::move(builder.Build(pair.lhs, pair.rhs)).value());
  }
  ThreadPool pool(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        InvertedIndex::Build(graphs, &pool, 0, interner.size()));
  }
}
BENCHMARK(BM_IndexBuildSharded);

void BM_PostingExtend(benchmark::State& state) {
  PostingList current, label;
  for (uint32_t g = 0; g < 256; ++g) {
    current.push_back(Posting{g, 1, static_cast<int>(g % 7) + 2});
    label.push_back(Posting{g, static_cast<int>(g % 7) + 2, 12});
  }
  std::vector<char> alive(256, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(InvertedIndex::Extend(current, label, &alive));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_PostingExtend);

void BM_PostingExtendInto(benchmark::State& state) {
  // Same join as BM_PostingExtend through the zero-allocation kernel: the
  // scratch list is reused across iterations, distinct count and hash
  // come fused out of the join.
  PostingList current, label;
  for (uint32_t g = 0; g < 256; ++g) {
    current.push_back(Posting{g, 1, static_cast<int>(g % 7) + 2});
    label.push_back(Posting{g, static_cast<int>(g % 7) + 2, 12});
  }
  std::vector<char> alive(256, 1);
  PostingList scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        InvertedIndex::ExtendInto(current, label, &alive, &scratch));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_PostingExtendInto);

void BM_PivotSearch(benchmark::State& state) {
  LabelInterner interner;
  GraphBuilder builder(GraphBuilderOptions{}, &interner);
  GraphSet set = std::move(GraphSet::Build(NamePairs(), builder)).value();
  PivotSearcher searcher(&set, PivotSearcher::Options{});
  for (auto _ : state) {
    std::vector<int> lower_bounds(set.size(), 1);
    for (GraphId g = 0; g < set.size(); ++g) {
      benchmark::DoNotOptimize(searcher.Search(g, 0, &lower_bounds));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(set.size()));
}
BENCHMARK(BM_PivotSearch);

void BM_CandidateGeneration(benchmark::State& state) {
  AddressGenOptions options;
  options.scale = 0.03;
  GeneratedDataset data = GenerateAddressDataset(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateCandidates(data.column, CandidateGenOptions{}));
  }
}
BENCHMARK(BM_CandidateGeneration);

void BM_TokenLcsAlign(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TokenLcsAlign("9 East Oak Street, 02141 Wisconsin",
                      "9th E Oak St, 02141 WI"));
  }
}
BENCHMARK(BM_TokenLcsAlign);

void BM_StructureSignature(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(StructureOf("9th E Oak St, 02141 WI"));
  }
}
BENCHMARK(BM_StructureSignature);

void BM_EndToEndGrouping(benchmark::State& state) {
  AddressGenOptions options;
  options.scale = 0.03;
  GeneratedDataset data = GenerateAddressDataset(options);
  CandidateSet candidates =
      GenerateCandidates(data.column, CandidateGenOptions{});
  for (auto _ : state) {
    GroupingEngine engine(candidates.pairs, GroupingOptions{});
    size_t count = 0;
    while (count < 20 && engine.Next().has_value()) ++count;
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_EndToEndGrouping);

void BM_CsvParse(benchmark::State& state) {
  // A realistic clustered CSV chunk with quoting.
  std::string doc = "cluster,value\n";
  for (int i = 0; i < 200; ++i) {
    doc += "c" + std::to_string(i / 4) + ",\"" + std::to_string(i) +
           "th St, 02141 \"\"WI\"\"\"\n";
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseCsv(doc));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_CsvParse);

void BM_ProgramParseRoundTrip(benchmark::State& state) {
  Term tc = Term::Regex(CharClass::kUpper);
  Term tl = Term::Regex(CharClass::kLower);
  Term tb = Term::Regex(CharClass::kSpace);
  Program program({
      StringFn::SubStr(PosFn::MatchPos(tb, 1, Dir::kEnd),
                       PosFn::MatchPos(tc, -1, Dir::kEnd)),
      StringFn::ConstantStr(". "),
      StringFn::SubStr(PosFn::MatchPos(tc, 1, Dir::kBegin),
                       PosFn::MatchPos(tl, 1, Dir::kEnd)),
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseProgram(SerializeProgram(program)));
  }
}
BENCHMARK(BM_ProgramParseRoundTrip);

void BM_TruthFinderIteration(benchmark::State& state) {
  // 200 clusters x 5 sources with disagreement.
  Column column(200);
  SourceMatrix sources(200);
  for (size_t c = 0; c < column.size(); ++c) {
    for (int s = 0; s < 5; ++s) {
      column[c].push_back(s % 2 == 0 ? "t" + std::to_string(c)
                                     : "w" + std::to_string(c) +
                                           std::to_string(s));
      sources[c].push_back(s);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(TruthFinder(column, sources, 5));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TruthFinderIteration);

// ---------------------------------------------------------------------
// Posting-kernel comparison (JSON lines for the bench trajectory).

// The seed (pre-packing) per-DFS-move inner loop, reproduced as the
// baseline: allocate a fresh output list per join, full-list sort +
// unique, then a separate DistinctGraphs scan and a separate sibling-
// dedup rehash of the result — exactly the three passes ExtendInto fuses.
PostingList SeedExtend(const PostingList& current,
                       const PostingList& label_list,
                       const std::vector<char>* alive) {
  PostingList out;
  size_t i = 0, j = 0;
  while (i < current.size() && j < label_list.size()) {
    const GraphId gi = current[i].graph();
    const GraphId gj = label_list[j].graph();
    if (gi < gj) {
      ++i;
      continue;
    }
    if (gj < gi) {
      ++j;
      continue;
    }
    if (alive != nullptr && !(*alive)[gi]) {
      while (i < current.size() && current[i].graph() == gi) ++i;
      while (j < label_list.size() && label_list[j].graph() == gi) ++j;
      continue;
    }
    size_t i_end = i;
    while (i_end < current.size() && current[i_end].graph() == gi) ++i_end;
    size_t j_end = j;
    while (j_end < label_list.size() && label_list[j_end].graph() == gi) {
      ++j_end;
    }
    for (size_t a = i; a < i_end; ++a) {
      for (size_t b = j; b < j_end; ++b) {
        if (current[a].end() == label_list[b].start()) {
          out.push_back(Posting(gi, current[a].start(), label_list[b].end()));
        }
      }
    }
    i = i_end;
    j = j_end;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

uint64_t SeedRescanAndHash(const PostingList& list) {
  // The two follow-up passes the seed DFS made per move.
  uint64_t h = kPostingHashSeed;
  for (const Posting& p : list) {
    h ^= p.bits();
    h *= kPostingHashPrime;
  }
  return h ^ InvertedIndex::DistinctGraphs(list);
}

// Runs `body` (one "round" = `ops` joins) until it has consumed at least
// `min_seconds`, returning seconds per op.
template <typename Body>
double TimePerOp(size_t ops, double min_seconds, const Body& body) {
  Timer timer;
  size_t rounds = 0;
  do {
    body();
    ++rounds;
  } while (timer.ElapsedSeconds() < min_seconds);
  return timer.ElapsedSeconds() / static_cast<double>(rounds * ops);
}

void RunPostingKernelComparison() {
  using bench::BenchScale;
  using bench::BenchSeed;
  using bench::kRatioReps;
  using bench::MedianPairedRatio;
  using bench::PairedRatio;
  printf("\n=== Posting-kernel comparison (JSON for the bench trajectory) "
         "===\n\n");

  // Realistic workload: the address dataset's candidate replacements,
  // one shared interner, real label skew.
  AddressGenOptions gen;
  gen.scale = BenchScale(0.05);
  gen.seed = BenchSeed();
  GeneratedDataset data = GenerateAddressDataset(gen);
  CandidateSet candidates =
      GenerateCandidates(data.column, CandidateGenOptions{});
  LabelInterner interner;
  GraphBuilder builder(GraphBuilderOptions{}, &interner);
  GraphSet set =
      std::move(GraphSet::Build(candidates.pairs, builder)).value();
  const InvertedIndex& index = set.index();
  const std::vector<char>& alive = set.alive_vector();

  PostingList root;
  for (GraphId g = 0; g < set.size(); ++g) root.push_back(Posting(g, 1, 1));
  std::vector<LabelId> labels;
  for (LabelId label = 0; label < interner.size(); ++label) {
    if (index.ListLength(label) > 0) labels.push_back(label);
  }
  const size_t ops = labels.size();
  const double min_seconds = 0.3;

  // Seed kernel (fresh allocation + full sort + two rescans per join) vs.
  // fused kernel (caller-owned scratch, stats fused into the join). The
  // gated speedup is the median of kRatioReps interleaved per-rep ratios.
  PostingList scratch;
  const double rep_seconds = 0.1;
  const PairedRatio timing = MedianPairedRatio(
      kRatioReps,
      [&] {
        return TimePerOp(ops, rep_seconds, [&] {
          for (LabelId label : labels) {
            PostingList out = SeedExtend(root, index.Find(label), &alive);
            benchmark::DoNotOptimize(SeedRescanAndHash(out));
          }
        });
      },
      [&] {
        return TimePerOp(ops, rep_seconds, [&] {
          for (LabelId label : labels) {
            const ExtendStats stats = InvertedIndex::ExtendInto(
                root, index.Find(label), &alive, &scratch);
            benchmark::DoNotOptimize(stats);
          }
        });
      });
  const double seed_per_op = timing.numerator_seconds;
  const double fused_per_op = timing.denominator_seconds;

  // Allocations per join in the steady state (scratch already sized).
  const int64_t allocs_before =
      g_heap_allocations.load(std::memory_order_relaxed);
  for (LabelId label : labels) {
    benchmark::DoNotOptimize(
        InvertedIndex::ExtendInto(root, index.Find(label), &alive, &scratch));
  }
  const int64_t allocs =
      g_heap_allocations.load(std::memory_order_relaxed) - allocs_before;

  printf("{\"bench\": \"posting_extend_kernel\", \"variant\": \"seed\", "
         "\"pairs\": %zu, \"labels\": %zu, \"ns_per_extend\": %.1f}\n",
         candidates.pairs.size(), ops, seed_per_op * 1e9);
  printf("{\"bench\": \"posting_extend_kernel\", \"variant\": \"fused\", "
         "\"pairs\": %zu, \"labels\": %zu, \"ns_per_extend\": %.1f, "
         "\"speedup_vs_seed\": %.2f, \"reps\": %d, "
         "\"allocs_per_extend\": %.3f}\n",
         candidates.pairs.size(), ops, fused_per_op * 1e9, timing.ratio,
         kRatioReps,
         static_cast<double>(allocs) / static_cast<double>(ops));

  // Index build: serial vs. sharded over a 4-thread pool.
  const auto& graphs = set.graphs();
  const double serial_build = TimePerOp(1, min_seconds, [&] {
    benchmark::DoNotOptimize(InvertedIndex::Build(graphs));
  });
  ThreadPool pool(4);
  const double sharded_build = TimePerOp(1, min_seconds, [&] {
    benchmark::DoNotOptimize(
        InvertedIndex::Build(graphs, &pool, 0, interner.size()));
  });
  printf("{\"bench\": \"inverted_index_build\", \"variant\": \"serial\", "
         "\"graphs\": %zu, \"labels\": %zu, \"ms_per_build\": %.3f}\n",
         graphs.size(), ops, serial_build * 1e3);
  printf("{\"bench\": \"inverted_index_build\", \"variant\": \"sharded\", "
         "\"graphs\": %zu, \"labels\": %zu, \"shards\": %d, "
         "\"hardware_threads\": %u, \"ms_per_build\": %.3f, "
         "\"speedup_vs_serial\": %.2f}\n",
         graphs.size(), ops, pool.num_threads(),
         std::thread::hardware_concurrency(), sharded_build * 1e3,
         sharded_build > 0 ? serial_build / sharded_build : 0.0);

  // Extend-heavy pivot search over the same graph set (the DFS is where
  // the fused kernel's savings land end to end).
  PivotSearcher searcher(&set, PivotSearcher::Options{});
  const double search_per_graph = TimePerOp(set.size(), min_seconds, [&] {
    std::vector<int> lower_bounds(set.size(), 1);
    for (GraphId g = 0; g < set.size(); ++g) {
      benchmark::DoNotOptimize(searcher.Search(g, 0, &lower_bounds));
    }
  });
  printf("{\"bench\": \"pivot_search\", \"variant\": \"fused_kernel\", "
         "\"graphs\": %zu, \"us_per_search\": %.2f}\n",
         set.size(), search_per_graph * 1e6);
}

}  // namespace
}  // namespace ustl

int main(int argc, char** argv) {
  ustl::bench::PrintEnvironmentJson("micro_kernels");
#if defined(USTL_HAVE_GOOGLE_BENCHMARK)
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
#else
  (void)argc;
  (void)argv;
  benchmark::RunAllRegistered();
#endif
  ustl::RunPostingKernelComparison();
  return 0;
}
