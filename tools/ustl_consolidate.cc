// End-to-end consolidation CLI (Algorithm 1 as a command-line tool).
//
//   ustl-consolidate --input clustered.csv --cluster-col cluster
//                    --output standardized.csv
//                    [--budget N] [--approve all|interactive]
//                    [--log transforms.txt] [--golden golden.csv]
//
// Reads entity-resolution output (a CSV with a cluster-key column),
// standardizes every attribute column with the grouping pipeline, asking
// the chosen oracle to confirm each replacement group largest-first, and
// writes the standardized table back. With --golden it also runs majority
// consensus and writes one golden record per cluster. With --log the
// approved transformation programs are persisted in the parseable
// dsl/parser.h syntax.
//
// --approve interactive shows up to five sample pairs per group and reads
// y/n/q plus a direction from stdin — the paper's human expert, live.
// --approve all applies every group lhs -> rhs without asking (useful for
// demos and smoke tests; real use should keep a human in the loop).
#include <cstdio>
#include <cstring>
#include <string>

#include "consolidate/framework.h"
#include "consolidate/oracle.h"
#include "consolidate/replay.h"
#include "consolidate/truth_discovery.h"
#include "io/csv.h"
#include "pipeline/pipeline.h"

namespace {

using namespace ustl;

struct Args {
  std::string input;
  std::string cluster_col = "cluster";
  std::string output;
  std::string golden;
  std::string log;
  std::string replay;
  std::string approve = "interactive";
  std::string oracle_cache = "on";
  std::string search_cache = "on";
  size_t budget = 100;
  int threads = 1;
  bool column_parallel = false;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: ustl-consolidate --input FILE --output FILE\n"
      "                        [--cluster-col NAME (default: cluster)]\n"
      "                        [--budget N (default: 100)]\n"
      "                        [--approve all|interactive (default: "
      "interactive)]\n"
      "                        [--log FILE] [--golden FILE]\n"
      "                        [--replay FILE]\n"
      "                        [--threads N (default: 1; 0 = all cores)]\n"
      "                        [--column-parallel]\n"
      "                        [--oracle-cache on|off (default: on)]\n"
      "                        [--search-cache on|off (default: on)]\n"
      "\n"
      "--threads parallelizes grouping (structure-group preprocessing, "
      "the index\nand move table within one structure group, and its "
      "pivot searches);\nresults are identical for any thread count.\n"
      "--column-parallel standardizes all columns concurrently on the "
      "thread\nbudget (pipeline subsystem); output stays byte-identical. "
      "Requires\n--approve all (a human can't answer interleaved "
      "prompts).\n"
      "--oracle-cache dedups repeated questions across columns by "
      "content;\nverdicts are unchanged, the oracle is just asked "
      "less.\n"
      "--search-cache reuses still-exact pivot-search results across "
      "grouping\nrounds and warm-starts identical-content columns from "
      "each other;\ngroups are byte-identical either way, off only "
      "repeats searches.\n"
      "--replay applies a previously saved transformation log (--log "
      "output)\ninstead of running verification; no questions are "
      "asked.\n");
}

// The interactive oracle: prints sample pairs, reads y/n/q and an optional
// direction ('<' replaces rhs by lhs; default replaces lhs by rhs).
class InteractiveOracle : public VerificationOracle {
 public:
  Verdict Verify(const std::vector<StringPair>& group_pairs) override {
    // After 'q' the column still drains its remaining groups (the
    // framework checks no quit flag); answer them silently as rejections
    // instead of re-prompting a user who already asked to stop.
    if (quit_) return Verdict{};
    std::printf("\ngroup of %zu replacement(s):\n", group_pairs.size());
    const size_t show = group_pairs.size() < 5 ? group_pairs.size() : 5;
    for (size_t i = 0; i < show; ++i) {
      std::printf("  \"%s\"  ->  \"%s\"\n", group_pairs[i].lhs.c_str(),
                  group_pairs[i].rhs.c_str());
    }
    if (show < group_pairs.size()) {
      std::printf("  ... and %zu more\n", group_pairs.size() - show);
    }
    std::printf("approve? [y = replace left by right, < = replace right by "
                "left, n = reject, q = stop]: ");
    std::fflush(stdout);
    char buffer[64];
    if (std::fgets(buffer, sizeof(buffer), stdin) == nullptr) {
      quit_ = true;
      return Verdict{};
    }
    const char answer = buffer[0];
    if (answer == 'q' || answer == 'Q') {
      quit_ = true;
      return Verdict{};
    }
    Verdict verdict;
    if (answer == 'y' || answer == 'Y') {
      verdict.approved = true;
      verdict.direction = ReplaceDirection::kLhsToRhs;
    } else if (answer == '<') {
      verdict.approved = true;
      verdict.direction = ReplaceDirection::kRhsToLhs;
    }
    return verdict;
  }

  bool quit() const { return quit_; }

 private:
  bool quit_ = false;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--input") == 0) {
      args.input = next("--input");
    } else if (std::strcmp(argv[i], "--cluster-col") == 0) {
      args.cluster_col = next("--cluster-col");
    } else if (std::strcmp(argv[i], "--output") == 0) {
      args.output = next("--output");
    } else if (std::strcmp(argv[i], "--golden") == 0) {
      args.golden = next("--golden");
    } else if (std::strcmp(argv[i], "--log") == 0) {
      args.log = next("--log");
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      args.replay = next("--replay");
    } else if (std::strcmp(argv[i], "--approve") == 0) {
      args.approve = next("--approve");
    } else if (std::strcmp(argv[i], "--budget") == 0) {
      args.budget = std::strtoull(next("--budget"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      args.threads = std::atoi(next("--threads"));
    } else if (std::strcmp(argv[i], "--column-parallel") == 0) {
      args.column_parallel = true;
    } else if (std::strcmp(argv[i], "--oracle-cache") == 0) {
      args.oracle_cache = next("--oracle-cache");
    } else if (std::strcmp(argv[i], "--search-cache") == 0) {
      args.search_cache = next("--search-cache");
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      Usage();
      return 2;
    }
  }
  if (args.input.empty() || args.output.empty() ||
      (args.approve != "all" && args.approve != "interactive") ||
      (args.oracle_cache != "on" && args.oracle_cache != "off") ||
      (args.search_cache != "on" && args.search_cache != "off")) {
    Usage();
    return 2;
  }
  if (args.column_parallel && args.approve == "interactive") {
    std::fprintf(stderr,
                 "--column-parallel needs --approve all; interactive "
                 "prompts from\nconcurrent columns would interleave. "
                 "Running columns serially.\n");
    args.column_parallel = false;
  }

  Result<std::string> content = ReadFileToString(args.input);
  if (!content.ok()) return Fail(content.status());
  Result<ClusteredCsv> clustered =
      ReadClusteredCsv(*content, args.cluster_col);
  if (!clustered.ok()) return Fail(clustered.status());
  Table& table = clustered->table;
  std::printf("read %zu clusters x %zu columns from %s\n",
              table.num_clusters(), table.num_columns(),
              args.input.c_str());

  FrameworkOptions options;
  options.budget_per_column = args.budget;
  options.skip_singletons = args.approve == "interactive";
  options.grouping.num_threads = args.threads;
  options.grouping.reuse_search_results = args.search_cache == "on";

  ApproveAllOracle approve_all;
  InteractiveOracle interactive;
  std::vector<ApprovedTransformation> approved;
  size_t total_edits = 0;
  if (!args.replay.empty()) {
    Result<std::string> log_content = ReadFileToString(args.replay);
    if (!log_content.ok()) return Fail(log_content.status());
    Result<std::vector<ApprovedTransformation>> transformations =
        ParseTransformationLog(*log_content);
    if (!transformations.ok()) return Fail(transformations.status());
    total_edits = ReplayTransformations(&table, *transformations);
    std::printf("replayed %zu transformation(s)\n",
                transformations->size());
  } else if (args.approve == "all") {
    // Batch path: the pipeline subsystem fans columns out over the thread
    // budget (when asked) and brokers every question — cache,
    // serialized backend calls and the replay log come from one place.
    PipelineOptions pipeline;
    pipeline.framework = options;
    pipeline.column_parallel = args.column_parallel;
    pipeline.num_threads = args.threads;
    pipeline.broker.cache_verdicts = args.oracle_cache == "on";
    pipeline.warm_search_cache = args.search_cache == "on";
    PipelineRun run = RunConsolidationPipeline(&table, &approve_all,
                                               pipeline);
    for (size_t col = 0; col < table.num_columns(); ++col) {
      const ColumnRunResult& result = run.per_column[col];
      total_edits += result.edits;
      std::printf("column '%s': presented %zu group(s), approved %zu, "
                  "%zu cell edit(s)\n",
                  table.column_names()[col].c_str(),
                  result.groups_presented, result.groups_approved,
                  result.edits);
    }
    std::printf("oracle: %zu question(s), %zu reached the oracle, %zu "
                "cache hit(s)\n",
                run.oracle_stats.questions, run.oracle_stats.backend_calls,
                run.oracle_stats.cache_hits);
    approved = std::move(run.approved_log);
  } else {
    // Interactive columns stay serial, but still go through a broker: the
    // human never answers the same question twice when the cache is on.
    OracleBroker::Options broker_options;
    broker_options.cache_verdicts = args.oracle_cache == "on";
    OracleBroker broker(&interactive, broker_options);
    for (size_t col = 0; col < table.num_columns(); ++col) {
      std::printf("=== column '%s' ===\n",
                  table.column_names()[col].c_str());
      options.column_name = table.column_names()[col];
      Column column = table.ExtractColumn(col);
      ColumnRunResult result = StandardizeColumn(&column, &broker, options);
      table.StoreColumn(col, column);
      total_edits += result.edits;
      std::printf("presented %zu group(s), approved %zu, %zu cell "
                  "edit(s)\n",
                  result.groups_presented, result.groups_approved,
                  result.edits);
      if (interactive.quit()) break;
    }
    approved = broker.ApprovedLog();
  }

  Status status = WriteStringToFile(args.output,
                                    WriteClusteredCsv(*clustered));
  if (!status.ok()) return Fail(status);
  std::printf("wrote standardized table (%zu edits) to %s\n", total_edits,
              args.output.c_str());

  if (!args.log.empty()) {
    status = WriteStringToFile(args.log, SerializeTransformationLog(approved));
    if (!status.ok()) return Fail(status);
    std::printf("wrote transformation log to %s\n", args.log.c_str());
  }

  if (!args.golden.empty()) {
    std::vector<GoldenRecord> golden = MajorityConsensus(table);
    status = WriteStringToFile(args.golden, WriteGoldenCsv(*clustered, golden));
    if (!status.ok()) return Fail(status);
    std::printf("wrote %zu golden records to %s\n", golden.size(),
                args.golden.c_str());
  }
  return 0;
}
