#include "pipeline/pipeline.h"

#include <algorithm>
#include <climits>

#include "serve/service.h"

namespace ustl {

PipelineRun RunConsolidationPipeline(Table* table,
                                     VerificationOracle* backend,
                                     const PipelineOptions& options) {
  // One-shot delegation to the serving layer: a fresh service scoped to
  // this call (cold broker and search cache), one request, drained
  // synchronously. max_concurrent_jobs = 1 is the serial column loop with
  // the whole budget handed to each engine; otherwise jobs split the
  // budget.
  ServiceOptions service_options;
  service_options.framework = options.framework;
  service_options.num_threads = options.num_threads;
  // Unlike the open-ended service, this facade knows the whole workload
  // is one table: capping concurrent jobs at the column count makes the
  // per-job split budget / min(budget, columns), so a wide budget over a
  // narrow table still reaches the grouping engines instead of idling.
  service_options.max_concurrent_jobs =
      options.column_parallel
          ? static_cast<int>(std::min<size_t>(
                table->num_columns(), static_cast<size_t>(INT_MAX)))
          : 1;
  service_options.broker = options.broker;
  service_options.share_search_cache = options.warm_search_cache;
  ConsolidationService service(backend, service_options);
  RequestOptions request_options;
  request_options.trace_sink = options.trace_sink;
  const uint64_t handle = service.Submit(table, std::move(request_options));
  RequestResult result = service.Wait(handle);

  PipelineRun run;
  run.per_column = std::move(result.per_column);
  run.golden_records = std::move(result.golden_records);
  run.oracle_stats = service.stats().oracle;
  run.approved_log = service.ApprovedLog();
  return run;
}

std::string FingerprintConsolidation(const Table& table,
                                     const std::vector<GoldenRecord>& golden) {
  // Length-free field/record separators are fine here: the fingerprint
  // only ever compares equal-shaped outputs of the same input table.
  std::string out;
  for (size_t c = 0; c < table.num_clusters(); ++c) {
    for (const auto& record : table.cluster(c)) {
      for (const std::string& value : record) {
        out += value;
        out += '\x1f';
      }
      out += '\x1e';
    }
    out += '\n';
  }
  for (const GoldenRecord& record : golden) {
    for (const auto& value : record) {
      out += value.value_or("<none>");
      out += '\x1f';
    }
    out += '\n';
  }
  return out;
}

// Declared in consolidate/framework.h; defined here so the consolidate
// layer never includes pipeline headers (the dependency stays
// pipeline -> consolidate only).
GoldenRecordRun GoldenRecordCreation(Table* table, VerificationOracle* oracle,
                                     const FrameworkOptions& options) {
  // Serial, cache-off pipeline configuration: the backend sees exactly the
  // question sequence the historical per-column loop produced, for any
  // oracle — including stateful ones that predate the order-independence
  // contract. The cross-column search warm start stays off too: identical
  // output either way, but legacy callers comparing search statistics
  // should see the historical counts.
  PipelineOptions pipeline;
  pipeline.framework = options;
  pipeline.column_parallel = false;
  pipeline.num_threads = options.grouping.num_threads;
  pipeline.broker.cache_verdicts = false;
  pipeline.warm_search_cache = false;
  PipelineRun run = RunConsolidationPipeline(table, oracle, pipeline);
  GoldenRecordRun out;
  out.per_column = std::move(run.per_column);
  out.golden_records = std::move(run.golden_records);
  return out;
}

}  // namespace ustl
