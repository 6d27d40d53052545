// Integration tests: the full Algorithm-1 pipeline on small instances of
// all three generated datasets, the affix ablation (Appendix F), and the
// oracle-error robustness claim of Section 3.
#include <gtest/gtest.h>

#include "consolidate/framework.h"
#include "consolidate/oracle.h"
#include "datagen/generators.h"
#include "eval/metrics.h"
#include "wrangler/scripts.h"

namespace ustl {
namespace {

struct PipelineOutcome {
  double precision = 0.0;
  double recall = 0.0;
  double mcc = 0.0;
  size_t groups_approved = 0;
};

PipelineOutcome RunPipeline(const GeneratedDataset& data, size_t budget,
                            bool affix = true, double oracle_error = 0.0) {
  auto samples = SampleLabeledPairs(
      data.column,
      [&](size_t c, size_t a, size_t b) {
        return data.IsVariantCellPair(c, a, b);
      },
      1000, 7);
  SimulatedOracle::Options oracle_options;
  oracle_options.error_rate = oracle_error;
  SimulatedOracle oracle(
      [&](const StringPair& pair) { return data.IsTrueVariantPair(pair); },
      data.direction_judge, oracle_options);
  FrameworkOptions options;
  options.budget_per_column = budget;
  options.grouping.graph.enable_affix = affix;
  Column column = data.column;
  ColumnRunResult result = StandardizeColumn(&column, &oracle, options);
  Confusion confusion = EvaluateIdentity(column, samples);
  return PipelineOutcome{Precision(confusion), Recall(confusion),
                         Mcc(confusion), result.groups_approved};
}

TEST(IntegrationTest, AddressPipelineIsPreciseAndRecalls) {
  AddressGenOptions options;
  options.scale = 0.12;
  PipelineOutcome outcome = RunPipeline(GenerateAddressDataset(options), 60);
  EXPECT_GE(outcome.precision, 0.97);
  EXPECT_GE(outcome.recall, 0.25);
  EXPECT_GT(outcome.mcc, 0.3);
  EXPECT_GT(outcome.groups_approved, 0u);
}

TEST(IntegrationTest, AuthorListPipeline) {
  AuthorListGenOptions options;
  options.scale = 0.25;
  PipelineOutcome outcome =
      RunPipeline(GenerateAuthorListDataset(options), 60);
  EXPECT_GE(outcome.precision, 0.97);
  EXPECT_GE(outcome.recall, 0.2);
}

TEST(IntegrationTest, JournalTitlePipeline) {
  JournalTitleGenOptions options;
  options.scale = 0.15;
  PipelineOutcome outcome =
      RunPipeline(GenerateJournalTitleDataset(options), 60);
  EXPECT_GE(outcome.precision, 0.97);
  EXPECT_GE(outcome.recall, 0.2);
}

TEST(IntegrationTest, AffixImprovesRecall) {
  // Appendix F / Figure 10: without Prefix/Suffix the Street->St family
  // cannot be grouped, so recall drops (or at best ties).
  AddressGenOptions options;
  options.scale = 0.12;
  GeneratedDataset data = GenerateAddressDataset(options);
  PipelineOutcome with_affix = RunPipeline(data, 60, /*affix=*/true);
  PipelineOutcome without_affix = RunPipeline(data, 60, /*affix=*/false);
  EXPECT_GE(with_affix.recall, without_affix.recall);
}

TEST(IntegrationTest, RobustToOracleErrors) {
  // Section 3: "our method is robust to small numbers of errors". A 5%
  // verdict flip rate must not collapse the metrics.
  AddressGenOptions options;
  options.scale = 0.12;
  GeneratedDataset data = GenerateAddressDataset(options);
  PipelineOutcome clean = RunPipeline(data, 60, true, 0.0);
  PipelineOutcome noisy = RunPipeline(data, 60, true, 0.05);
  EXPECT_GE(noisy.recall, clean.recall * 0.5);
  EXPECT_GE(noisy.precision, 0.85);
}

TEST(IntegrationTest, GroupBeatsWranglerOnRecall) {
  // The headline comparison (Figures 6-8): with a reasonable budget the
  // grouped pipeline reaches at least the wrangler's recall.
  AddressGenOptions options;
  options.scale = 0.12;
  GeneratedDataset data = GenerateAddressDataset(options);
  auto samples = SampleLabeledPairs(
      data.column,
      [&](size_t c, size_t a, size_t b) {
        return data.IsVariantCellPair(c, a, b);
      },
      1000, 7);

  Column wrangled = data.column;
  AddressWranglerScript().ApplyToColumn(&wrangled);
  Confusion wrangler = EvaluateIdentity(wrangled, samples);

  PipelineOutcome group = RunPipeline(data, 100);
  EXPECT_GE(group.recall, Recall(wrangler) * 0.9);
  EXPECT_GE(group.precision, 0.97);
}

TEST(IntegrationTest, TruthDiscoveryImprovesAfterStandardization) {
  // Table 8's mechanism: majority consensus resolves more clusters
  // correctly once variants are consolidated. Measured by supporter truth
  // ids (see bench/table8_truth_discovery.cpp).
  AddressGenOptions options;
  options.scale = 0.12;
  GeneratedDataset data = GenerateAddressDataset(options);

  auto mc_correct = [&](const Column& column) {
    size_t correct = 0, produced = 0;
    for (size_t c = 0; c < column.size(); ++c) {
      auto golden = MajorityValue(column[c]);
      if (!golden.has_value()) continue;
      ++produced;
      // Majority truth id among supporters of the winning string.
      std::map<int, int> votes;
      for (size_t r = 0; r < column[c].size(); ++r) {
        if (column[c][r] == *golden) ++votes[data.cell_truth[c][r]];
      }
      int best_id = -1, best_votes = -1;
      for (auto [id, count] : votes) {
        if (count > best_votes) {
          best_votes = count;
          best_id = id;
        }
      }
      correct += best_id == data.cluster_true_id[c];
    }
    return produced == 0 ? 0.0
                         : static_cast<double>(correct) /
                               static_cast<double>(produced);
  };

  double before = mc_correct(data.column);

  SimulatedOracle oracle(
      [&](const StringPair& pair) { return data.IsTrueVariantPair(pair); },
      data.direction_judge, SimulatedOracle::Options{});
  FrameworkOptions fw;
  fw.budget_per_column = 80;
  Column column = data.column;
  StandardizeColumn(&column, &oracle, fw);
  double after = mc_correct(column);

  EXPECT_GE(after, before);
}

}  // namespace
}  // namespace ustl
