// Column-parallel consolidation pipeline bench. A multi-column table
// (the Address analog replicated into several attribute columns — the
// workload a multi-source feed produces, where the same variant families
// recur across columns) is standardized through RunConsolidationPipeline
// and its OracleBroker under every configuration of the acceptance matrix:
// --threads {1,4} x column-parallel {on,off} x oracle cache {on,off}.
//
// Emits one JSON line per configuration so runs land in the bench
// trajectory. Every line reports `byte_identical` against the serial
// baseline (the pipeline's determinism contract) and the broker counters
// (`cache_hits` > 0 is the "oracle calls strictly reduced" criterion).
// `hardware_threads` contextualizes the speedup: on a single-core
// container the parallel legs cannot beat serial by construction.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "pipeline/pipeline.h"

namespace {

using namespace ustl;
using namespace ustl::bench;

constexpr size_t kColumns = 4;

Table MakeMultiColumnTable(const GeneratedDataset& data) {
  std::vector<std::string> names;
  for (size_t i = 1; i <= kColumns; ++i) {
    names.push_back("value" + std::to_string(i));
  }
  Table table(names);
  for (size_t c = 0; c < data.column.size(); ++c) {
    size_t cluster = table.AddCluster();
    for (const std::string& value : data.column[c]) {
      table.AddRecord(cluster, std::vector<std::string>(kColumns, value));
    }
  }
  return table;
}

struct ConfigResult {
  double seconds = 0.0;
  std::string fingerprint;
  OracleBrokerStats stats;
};

ConfigResult RunConfig(const GeneratedDataset& data, int threads,
                       bool column_parallel, bool cache) {
  Table table = MakeMultiColumnTable(data);
  SimulatedOracle oracle = MakeOracle(data);
  PipelineOptions options;
  options.framework.budget_per_column = 100;
  options.column_parallel = column_parallel;
  options.num_threads = threads;
  options.broker.cache_verdicts = cache;
  Timer timer;
  PipelineRun run = RunConsolidationPipeline(&table, &oracle, options);
  ConfigResult result;
  result.seconds = timer.ElapsedSeconds();
  result.fingerprint = FingerprintConsolidation(table, run.golden_records);
  result.stats = run.oracle_stats;
  return result;
}

}  // namespace

int main() {
  PrintEnvironmentJson("pipeline_columns");
  const double scale = BenchScale(0.15);
  printf("=== Pipeline: column-parallel consolidation over %zu replicated "
         "Address columns (scale=%.2f) ===\n\n",
         kColumns, scale);

  AddressGenOptions gen;
  gen.scale = scale;
  gen.seed = BenchSeed() + 11;
  GeneratedDataset data = GenerateAddressDataset(gen);
  const unsigned cores = std::thread::hardware_concurrency();

  struct Config {
    int threads;
    bool column_parallel;
    bool cache;
  };
  const std::vector<Config> configs = {
      {1, false, false},  // the serial no-cache baseline (Algorithm 1)
      {1, false, true},
      {4, true, false},
      {4, true, true},
  };

  ConfigResult baseline;
  for (const Config& config : configs) {
    ConfigResult result =
        RunConfig(data, config.threads, config.column_parallel, config.cache);
    if (baseline.fingerprint.empty()) baseline = result;
    printf("{\"bench\": \"pipeline_columns\", \"threads\": %d, "
           "\"column_parallel\": %s, \"oracle_cache\": %s, "
           "\"columns\": %zu, \"clusters\": %zu, \"hardware_threads\": %u, "
           "\"seconds\": %.4f, \"speedup\": %.2f, \"questions\": %zu, "
           "\"oracle_calls\": %zu, \"cache_hits\": %zu, "
           "\"byte_identical\": %s}\n",
           config.threads, config.column_parallel ? "true" : "false",
           config.cache ? "true" : "false", kColumns, data.column.size(),
           cores, result.seconds,
           result.seconds > 0 ? baseline.seconds / result.seconds : 0.0,
           result.stats.questions, result.stats.backend_calls,
           result.stats.cache_hits,
           result.fingerprint == baseline.fingerprint ? "true" : "false");
  }

  printf("\nReading: every configuration must report byte_identical: true "
         "— scheduling\nnever changes output. With the cache on, "
         "oracle_calls drops to the distinct-\nquestion count (one "
         "column's worth here, since the columns are replicas);\nspeedup "
         "> 1 additionally needs hardware_threads > 1.\n");
  return 0;
}
