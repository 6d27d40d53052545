// Shared plumbing for the benchmark harnesses that regenerate the paper's
// tables and figures. Each harness is a standalone binary that prints the
// same rows/series the paper reports; USTL_BENCH_SCALE (default 0.2)
// scales the generated datasets so the whole suite runs in minutes on a
// laptop (the paper used 17k-55k-record datasets on a 128 GB server).
#ifndef USTL_BENCH_BENCH_UTIL_H_
#define USTL_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "consolidate/framework.h"
#include "consolidate/oracle.h"
#include "datagen/generators.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "pipeline/oracle_broker.h"
#include "wrangler/scripts.h"

namespace ustl {
namespace bench {

inline double BenchScale(double fallback = 0.5) {
  const char* env = std::getenv("USTL_BENCH_SCALE");
  if (env == nullptr) return fallback;
  double value = std::atof(env);
  return value > 0 ? value : fallback;
}

inline uint64_t BenchSeed() {
  const char* env = std::getenv("USTL_BENCH_SEED");
  return env == nullptr ? 17 : std::strtoull(env, nullptr, 10);
}

/// One environment-attribution line per JSON-emitting bench binary, so a
/// recorded trajectory says what machine and toolchain produced it. The
/// "environment" variant carries no gated metrics — check_bench.py keys
/// gates by (bench, variant) and never looks this line up.
inline void PrintEnvironmentJson(const char* bench_name) {
  char compiler[64];
#if defined(__clang__)
  std::snprintf(compiler, sizeof(compiler), "clang %d.%d.%d",
                __clang_major__, __clang_minor__, __clang_patchlevel__);
#elif defined(__GNUC__)
  std::snprintf(compiler, sizeof(compiler), "gcc %d.%d.%d", __GNUC__,
                __GNUC_MINOR__, __GNUC_PATCHLEVEL__);
#else
  std::snprintf(compiler, sizeof(compiler), "unknown");
#endif
#if defined(NDEBUG)
  const char* build_type = "Release";
#else
  const char* build_type = "Debug";
#endif
  std::printf(
      "{\"bench\": \"%s\", \"variant\": \"environment\", "
      "\"hardware_threads\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\"}\n",
      bench_name, std::thread::hardware_concurrency(), compiler, build_type);
}

/// The three datasets with their paper budgets (200/100/100 groups).
struct BenchDataset {
  GeneratedDataset data;
  size_t budget = 100;
  const WranglerScript* wrangler = nullptr;
};

inline std::vector<BenchDataset> MakeBenchDatasets(double scale,
                                                   uint64_t seed) {
  AllDatasets all = GenerateAllDatasets(scale, seed);
  std::vector<BenchDataset> out(3);
  out[0].data = std::move(all.author_list);
  out[0].budget = 200;
  out[0].wrangler = &AuthorListWranglerScript();
  out[1].data = std::move(all.address);
  out[1].budget = 100;
  out[1].wrangler = &AddressWranglerScript();
  out[2].data = std::move(all.journal_title);
  out[2].budget = 100;
  out[2].wrangler = &JournalTitleWranglerScript();
  return out;
}

inline std::vector<SampledPair> SampleFor(const GeneratedDataset& data) {
  return SampleLabeledPairs(
      data.column,
      [&](size_t c, size_t a, size_t b) {
        return data.IsVariantCellPair(c, a, b);
      },
      1000, 7);
}

inline SimulatedOracle MakeOracle(const GeneratedDataset& data,
                                  double error_rate = 0.0) {
  SimulatedOracle::Options options;
  options.error_rate = error_rate;
  return SimulatedOracle(
      [&data](const StringPair& pair) { return data.IsTrueVariantPair(pair); },
      data.direction_judge, options);
}

/// Metric trajectories for one method: entry k is the confusion matrix
/// after k groups were confirmed (entry 0 = untouched data).
using Trajectory = std::vector<Confusion>;

/// Runs the grouped pipeline (the paper's Group method) or the Single
/// baseline once, recording the confusion matrix after every presented
/// group.
inline Trajectory RunBudgetTrajectory(const GeneratedDataset& data,
                                      size_t budget, bool group_method,
                                      bool affix = true) {
  std::vector<SampledPair> samples = SampleFor(data);
  Trajectory trajectory;
  trajectory.push_back(EvaluateIdentity(data.column, samples));
  SimulatedOracle oracle = MakeOracle(data);
  // Questions flow through the pipeline subsystem's broker, like the CLI's
  // batch path; verdicts are unchanged (order-independence contract), the
  // oracle is just deduplicated.
  OracleBroker broker(&oracle);
  FrameworkOptions options;
  options.budget_per_column = budget;
  options.grouping.graph.enable_affix = affix;
  options.progress_callback = [&](size_t, const Column& column) {
    trajectory.push_back(EvaluateIdentity(column, samples));
  };
  Column column = data.column;
  if (group_method) {
    StandardizeColumn(&column, &broker, options);
  } else {
    StandardizeColumnSingle(&column, &broker, options);
  }
  // Pad to full budget (exhausted early = metrics freeze).
  while (trajectory.size() <= budget) trajectory.push_back(trajectory.back());
  return trajectory;
}

/// The wrangler baseline's (budget-independent) confusion matrix.
inline Confusion RunWrangler(const BenchDataset& bench) {
  std::vector<SampledPair> samples = SampleFor(bench.data);
  Column column = bench.data.column;
  bench.wrangler->ApplyToColumn(&column);
  return EvaluateIdentity(column, samples);
}

/// Prints one figure panel (x = #groups confirmed, series Trifacta /
/// Single / Group) for the metric selected by `metric`.
inline void PrintFigurePanel(const std::string& figure,
                             const BenchDataset& bench,
                             double (*metric)(const Confusion&)) {
  Trajectory group = RunBudgetTrajectory(bench.data, bench.budget, true);
  Trajectory single = RunBudgetTrajectory(bench.data, bench.budget, false);
  Confusion wrangler = RunWrangler(bench);
  std::vector<std::vector<double>> rows;
  size_t step = bench.budget >= 200 ? 20 : 10;
  for (size_t k = 0; k <= bench.budget; k += step) {
    rows.push_back({static_cast<double>(k), metric(wrangler),
                    metric(single[k]), metric(group[k])});
  }
  printf("%s", RenderSeries(figure + " — " + bench.data.name,
                            {"groups_confirmed", "Trifacta", "Single",
                             "Group"},
                            rows)
                   .c_str());
  printf("\n");
}

/// Median of `values`; the mean of the two middle values for an even
/// count, 0 for none.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// Repetitions behind every ratio that tools/check_bench.py gates.
inline constexpr int kRatioReps = 15;

/// A gated time ratio: the median of per-rep ratios, plus each side's
/// median seconds for the record.
struct PairedRatio {
  double ratio = 0.0;
  double numerator_seconds = 0.0;
  double denominator_seconds = 0.0;
};

/// Times `reps` interleaved pairs of `numerator()` and `denominator()`
/// (each returns the seconds it measured; even reps run the numerator
/// first, odd reps the denominator) and returns the median of the
/// per-rep ratios numerator / denominator. The two sides of one rep run
/// back to back, so a slow spell of a shared host slows both and cancels
/// in their ratio, and the median drops the reps a spell splits. A ratio
/// of per-side minima compares the best moments of two different spells
/// instead, and swung past 2-5% bounds between runs of identical code.
template <typename Numerator, typename Denominator>
PairedRatio MedianPairedRatio(int reps, Numerator&& numerator,
                              Denominator&& denominator) {
  std::vector<double> ratios;
  std::vector<double> numerators;
  std::vector<double> denominators;
  for (int rep = 0; rep < reps; ++rep) {
    double top = 0.0;
    double bottom = 0.0;
    if (rep % 2 == 0) {
      top = numerator();
      bottom = denominator();
    } else {
      bottom = denominator();
      top = numerator();
    }
    numerators.push_back(top);
    denominators.push_back(bottom);
    ratios.push_back(bottom > 0.0 ? top / bottom : 0.0);
  }
  PairedRatio out;
  out.ratio = Median(ratios);
  out.numerator_seconds = Median(numerators);
  out.denominator_seconds = Median(denominators);
  return out;
}

}  // namespace bench
}  // namespace ustl

#endif  // USTL_BENCH_BENCH_UTIL_H_
