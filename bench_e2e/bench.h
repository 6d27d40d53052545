// Shared pieces of the end-to-end benchmark: seeded inputs with ground
// truth, the content-pure simulated expert, serial reference runs, the
// in-memory span recorder and the serial layer replay. main.cc drives the
// workloads; README.md explains the metrics.
#ifndef USTL_BENCH_E2E_BENCH_H_
#define USTL_BENCH_E2E_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "consolidate/framework.h"
#include "consolidate/oracle.h"
#include "datagen/generators.h"
#include "eval/metrics.h"

namespace ustl {
namespace bench_e2e {

/// Monotonic seconds (steady clock).
double Now();

// ------------------------------------------------------------------ spans

/// In-memory spans: name, start, end and the span that caused it. Kept
/// until the run ends, then summarized and optionally written out.
/// Thread-safe: the service's workers, its oracle thread and the
/// benchmark's own threads record into one recorder.
class SpanRecorder {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    std::string name;
    double start = 0.0;
    double end = 0.0;
  };

  uint64_t Begin(std::string name, uint64_t parent, double start);
  void End(uint64_t id, double end);
  /// Per span name: summed self time in ms — each span's duration minus
  /// the part of it that its children cover.
  std::map<std::string, double> SelfMs() const;
  /// One JSON object per span, one per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; inert when
/// the recorder is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  uint64_t id_ = 0;
};

// ----------------------------------------------------------------- inputs

enum class Family { kAddress, kAuthorList, kJournalTitle };

/// One generated single-column table plus the dataset it came from.
struct BenchTable {
  Family family = Family::kAddress;
  /// Position in the workload's fixed corpus (main.cc MakeInputs).
  size_t corpus_index = 0;
  GeneratedDataset data;
  Table table{{"value"}};
  size_t records = 0;
};

/// Generates one table with generator seed `seed`, then shuffles its
/// clusters and each cluster's records with `order` (ground truth moves
/// along).
BenchTable MakeBenchTable(Family family, double scale, uint64_t seed,
                          std::mt19937_64* order);

/// The framework configuration every run uses (the paper's budget of 100
/// questions per column; everything else at its default).
FrameworkOptions BenchFramework();

/// Ground truth over every table of a workload, as ONE content-pure
/// judge: a pair is a variant when both strings were generated for a
/// common logical value of one dataset, or when a family's segment judge
/// accepts it; the direction is the first family preference that is not
/// 0, in a fixed family order. Tables served by one service share one
/// broker cache, so the expert must answer a question the same way
/// whichever table asked it (consolidate/oracle.h order-independence).
class UnionTruth {
 public:
  explicit UnionTruth(const std::vector<BenchTable>& tables);
  bool IsVariant(const StringPair& pair) const;
  int Direction(const StringPair& pair) const;
  /// A fresh SimulatedOracle over this truth. Not thread-safe; make one
  /// per thread. Must not outlive this object.
  std::unique_ptr<SimulatedOracle> MakeOracle() const;

 private:
  /// string -> (dataset index << 32 | logical value id), sorted.
  std::unordered_map<std::string, std::vector<uint64_t>> ids_;
  std::vector<std::function<bool(const StringPair&)>> variant_judges_;
  std::vector<std::function<int(const StringPair&)>> direction_judges_;
};

/// A serial, 1-thread, cache-off run of one table: the output every
/// faster configuration must reproduce byte for byte.
struct Reference {
  std::string fingerprint;
  ColumnRunResult column;
  Table output{{"value"}};
};

/// GoldenRecordCreation (serial, cache-off) per table, `workers` tables at
/// a time, each on its own thread with its own expert.
std::vector<Reference> ComputeReferences(const std::vector<BenchTable>& tables,
                                         const UnionTruth& truth,
                                         int workers);

/// Recall/precision protocol of Section 8 (as in fig6/fig7), summed over
/// tables: sampled labelled pairs of the input, judged on the output.
Confusion MeasureQuality(const std::vector<BenchTable>& tables,
                         const std::vector<Reference>& references);

// ----------------------------------------------------------------- replay

/// Totals of the serial layer replay (replay.cc).
struct ReplayTotals {
  size_t pairs = 0;
  size_t edits = 0;
  size_t graphs = 0;
  size_t labels = 0;
  size_t postings = 0;
  /// Largest per-table sum of index bytes: the index a column keeps
  /// resident while it is grouped.
  size_t max_table_index_bytes = 0;
  uint64_t searches = 0;
  uint64_t expansions = 0;
  size_t questions = 0;
  size_t approved = 0;
  /// Tables whose replay disagreed with the serial run; `mismatch`
  /// describes the first.
  size_t mismatches = 0;
  std::string mismatch;
};

/// Replays every table serially through the public layer calls —
/// ReplacementStore, PartitionByStructure, per partition the term scorer,
/// GraphBuilder::BuildBatch, InvertedIndex::Build and IncrementalEngine,
/// then verify, apply and fuse — with a span around each call. The group
/// sequence, output fingerprint, searches and expansions must equal
/// `expected` (the serial, cache-off GroupingEngine run of the same table).
ReplayTotals ReplayTables(const std::vector<BenchTable>& tables,
                          const UnionTruth& truth,
                          const std::vector<ColumnRunResult>& expected,
                          const std::vector<std::string>& expected_fingerprints,
                          SpanRecorder* spans);

}  // namespace bench_e2e
}  // namespace ustl

#endif  // USTL_BENCH_E2E_BENCH_H_
