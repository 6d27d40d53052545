// CSV pipeline: the library as a downstream user would deploy it.
//
// Reads entity-resolution output from CSV (a cluster-key column plus
// attribute columns), standardizes every attribute with the grouping
// pipeline, persists the approved transformations in the parseable log
// format, and replays that log on a second batch of the same feed —
// standardizing it with zero additional questions.
//
//   $ ./examples/csv_pipeline
#include <cstdio>

#include "consolidate/framework.h"
#include "consolidate/oracle.h"
#include "consolidate/replay.h"
#include "consolidate/truth_discovery.h"
#include "dsl/parser.h"
#include "io/csv.h"

using namespace ustl;

int main() {
  // Batch 1: what an entity-resolution stage would hand over.
  const char* batch1_csv =
      "ein,address\n"
      "e1,\"9 St, 02141 Wisconsin\"\n"
      "e1,\"9th St, 02141 WI\"\n"
      "e1,\"9 Street, 02141 WI\"\n"
      "e2,\"5th St, 22701 California\"\n"
      "e2,\"3rd E Ave, 33990 California\"\n"
      "e2,\"3 E Avenue, 33990 CA\"\n"
      "e3,\"77 Main Street, 10001 NY\"\n"
      "e3,\"77 Main St, 10001 NY\"\n";

  Result<ClusteredCsv> batch1 = ReadClusteredCsv(batch1_csv, "ein");
  if (!batch1.ok()) {
    printf("parse failed: %s\n", batch1.status().ToString().c_str());
    return 1;
  }
  printf("== batch 1: %zu clusters ==\n", batch1->table.num_clusters());

  // Standardize the address column. ApproveAllOracle stands in for the
  // human here; the CLI tool (tools/ustl-consolidate) offers a real
  // interactive prompt.
  ApproveAllOracle oracle;
  FrameworkOptions options;
  options.budget_per_column = 20;
  Column column = batch1->table.ExtractColumn(0);
  ColumnRunResult run = StandardizeColumn(&column, &oracle, options);
  batch1->table.StoreColumn(0, column);

  printf("presented %zu groups, approved %zu, %zu cell edits\n\n",
         run.groups_presented, run.groups_approved, run.edits);
  printf("== standardized batch 1 ==\n%s\n",
         WriteClusteredCsv(*batch1).c_str());

  // Golden records via majority consensus (Algorithm 1 line 10).
  printf("== golden records ==\n");
  std::vector<GoldenRecord> golden = MajorityConsensus(batch1->table);
  for (size_t c = 0; c < golden.size(); ++c) {
    printf("  %s: %s\n", batch1->cluster_keys[c].c_str(),
           golden[c][0].has_value() ? golden[c][0]->c_str() : "(tie)");
  }

  // Persist the approved transformations...
  std::vector<ApprovedTransformation> approved;
  for (const GroupTrace& trace : run.trace) {
    if (!trace.approved) continue;
    Result<Program> program = ParseProgram(trace.program);
    if (!program.ok()) continue;
    // No member pairs: replay generalizes to every consistent pair.
    approved.push_back(ApprovedTransformation{
        "address", std::move(program).value(), trace.direction, {}});
  }
  std::string log = SerializeTransformationLog(approved);
  printf("\n== transformation log (%zu entries) ==\n%s",
         approved.size(), log.c_str());

  // ... and replay them on a new batch: no oracle, no questions.
  const char* batch2_csv =
      "ein,address\n"
      "e9,\"12 Oak Street, 02139 Massachusetts\"\n"
      "e9,\"12 Oak St, 02139 Massachusetts\"\n";
  Result<ClusteredCsv> batch2 = ReadClusteredCsv(batch2_csv, "ein");
  if (!batch2.ok()) return 1;
  Result<std::vector<ApprovedTransformation>> parsed =
      ParseTransformationLog(log);
  if (!parsed.ok()) return 1;
  size_t edits = ReplayTransformations(&batch2->table, *parsed);
  printf("\n== batch 2 after replay (%zu edits) ==\n%s",
         edits, WriteClusteredCsv(*batch2).c_str());
  return 0;
}
