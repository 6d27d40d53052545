#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <numeric>
#include <thread>

#include "bench.h"
#include "pipeline/pipeline.h"

namespace ustl {
namespace bench_e2e {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ spans

uint64_t SpanRecorder::Begin(std::string name, uint64_t parent, double start) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = std::move(name);
  span.start = start;
  span.end = start;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id, double end) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end = end;
}

std::map<std::string, double> SpanRecorder::SelfMs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    double covered = 0.0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      std::vector<std::pair<double, double>>& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double run_start = 0.0;
      double run_end = -1.0;
      for (const auto& [start, end] : intervals) {
        const double a = std::max(start, span.start);
        const double b = std::min(end, span.end);
        if (b <= a) continue;
        if (a > run_end) {
          if (run_end > run_start) covered += run_end - run_start;
          run_start = a;
          run_end = b;
        } else {
          run_end = std::max(run_end, b);
        }
      }
      if (run_end > run_start) covered += run_end - run_start;
    }
    self[span.name] += (span.end - span.start - covered) * 1e3;
  }
  return self;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 span.name.c_str(), span.start, span.end);
  }
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string name,
                       uint64_t parent)
    : recorder_(recorder) {
  if (recorder_ != nullptr) id_ = recorder_->Begin(std::move(name), parent, Now());
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ != nullptr) recorder_->End(id_, Now());
}

// ----------------------------------------------------------------- inputs

BenchTable MakeBenchTable(Family family, double scale, uint64_t seed,
                          std::mt19937_64* order) {
  BenchTable out;
  out.family = family;
  switch (family) {
    case Family::kAddress: {
      AddressGenOptions options;
      options.scale = scale;
      options.seed = seed;
      out.data = GenerateAddressDataset(options);
      break;
    }
    case Family::kAuthorList: {
      AuthorListGenOptions options;
      options.scale = scale;
      options.seed = seed;
      out.data = GenerateAuthorListDataset(options);
      break;
    }
    case Family::kJournalTitle: {
      JournalTitleGenOptions options;
      options.scale = scale;
      options.seed = seed;
      out.data = GenerateJournalTitleDataset(options);
      break;
    }
  }
  GeneratedDataset& data = out.data;
  std::vector<size_t> clusters(data.column.size());
  std::iota(clusters.begin(), clusters.end(), 0);
  std::shuffle(clusters.begin(), clusters.end(), *order);
  Column column;
  std::vector<std::vector<int>> truth;
  std::vector<int> true_ids;
  for (size_t c : clusters) {
    std::vector<size_t> rows(data.column[c].size());
    std::iota(rows.begin(), rows.end(), 0);
    std::shuffle(rows.begin(), rows.end(), *order);
    column.emplace_back();
    truth.emplace_back();
    for (size_t r : rows) {
      column.back().push_back(std::move(data.column[c][r]));
      truth.back().push_back(data.cell_truth[c][r]);
    }
    true_ids.push_back(data.cluster_true_id[c]);
  }
  data.column = std::move(column);
  data.cell_truth = std::move(truth);
  data.cluster_true_id = std::move(true_ids);
  for (const std::vector<std::string>& cluster : data.column) {
    const size_t c = out.table.AddCluster();
    for (const std::string& value : cluster) out.table.AddRecord(c, {value});
  }
  out.records = out.table.num_records();
  return out;
}

FrameworkOptions BenchFramework() {
  FrameworkOptions framework;
  framework.budget_per_column = 100;
  return framework;
}

UnionTruth::UnionTruth(const std::vector<BenchTable>& tables) {
  for (size_t d = 0; d < tables.size(); ++d) {
    for (const auto& [value, ids] : tables[d].data.string_ids) {
      std::vector<uint64_t>& keys = ids_[value];
      for (int id : ids) {
        keys.push_back(static_cast<uint64_t>(d) << 32 |
                       static_cast<uint32_t>(id));
      }
    }
  }
  for (auto& [value, keys] : ids_) std::sort(keys.begin(), keys.end());
  // Judges depend on the family only, never on the seed.
  for (Family family :
       {Family::kAuthorList, Family::kAddress, Family::kJournalTitle}) {
    for (const BenchTable& table : tables) {
      if (table.family != family) continue;
      variant_judges_.push_back(table.data.variant_judge);
      direction_judges_.push_back(table.data.direction_judge);
      break;
    }
  }
}

bool UnionTruth::IsVariant(const StringPair& pair) const {
  auto lhs = ids_.find(pair.lhs);
  auto rhs = ids_.find(pair.rhs);
  if (lhs != ids_.end() && rhs != ids_.end()) {
    const std::vector<uint64_t>& a = lhs->second;
    const std::vector<uint64_t>& b = rhs->second;
    size_t i = 0;
    size_t j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] == b[j]) return true;
      a[i] < b[j] ? ++i : ++j;
    }
  }
  for (const auto& judge : variant_judges_) {
    if (judge(pair)) return true;
  }
  return false;
}

int UnionTruth::Direction(const StringPair& pair) const {
  for (const auto& judge : direction_judges_) {
    const int preference = judge(pair);
    if (preference != 0) return preference;
  }
  return 0;
}

std::unique_ptr<SimulatedOracle> UnionTruth::MakeOracle() const {
  return std::make_unique<SimulatedOracle>(
      [this](const StringPair& pair) { return IsVariant(pair); },
      [this](const StringPair& pair) { return Direction(pair); },
      SimulatedOracle::Options{});
}

std::vector<Reference> ComputeReferences(const std::vector<BenchTable>& tables,
                                         const UnionTruth& truth,
                                         int workers) {
  std::vector<Reference> out(tables.size());
  std::atomic<size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  auto work = [&] {
    try {
      std::unique_ptr<SimulatedOracle> oracle = truth.MakeOracle();
      FrameworkOptions framework = BenchFramework();
      framework.grouping.num_threads = 1;
      for (size_t i = next++; i < tables.size(); i = next++) {
        Table table = tables[i].table;
        GoldenRecordRun run =
            GoldenRecordCreation(&table, oracle.get(), framework);
        out[i].fingerprint =
            FingerprintConsolidation(table, run.golden_records);
        out[i].column = std::move(run.per_column.at(0));
        out[i].output = std::move(table);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (error == nullptr) error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (int w = 1; w < workers; ++w) threads.emplace_back(work);
  work();
  for (std::thread& thread : threads) thread.join();
  if (error != nullptr) std::rethrow_exception(error);
  return out;
}

Confusion MeasureQuality(const std::vector<BenchTable>& tables,
                         const std::vector<Reference>& references) {
  Confusion total;
  for (size_t i = 0; i < tables.size(); ++i) {
    const GeneratedDataset& data = tables[i].data;
    std::vector<SampledPair> samples = SampleLabeledPairs(
        data.column,
        [&data](size_t c, size_t a, size_t b) {
          return data.IsVariantCellPair(c, a, b);
        },
        1000, 7);
    const Confusion c =
        EvaluateIdentity(references[i].output.ExtractColumn(0), samples);
    total.tp += c.tp;
    total.fp += c.fp;
    total.fn += c.fn;
    total.tn += c.tn;
  }
  return total;
}

}  // namespace bench_e2e
}  // namespace ustl
