// Cross-commit golden values of the grouping engine. The in-tree
// determinism tests compare one build's serial run with its own threaded
// or cached runs, so a change that moves the canonical pivot everywhere
// at once would pass all of them. These tests pin, for three fixed
// generated tables, an FNV-1a hash of the whole group sequence (pivot
// program text plus member pair indices, in Next() order) and the serial
// engine's search and expansion counts. A change that is meant to keep
// grouping output identical must leave all three values as they are; a
// change that moves them on purpose re-records them and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "datagen/generators.h"
#include "grouping/grouping.h"
#include "replace/candidate_gen.h"

namespace ustl {
namespace {

struct Golden {
  uint64_t groups_hash = 0;
  size_t groups = 0;
  uint64_t searches = 0;
  uint64_t expansions = 0;
};

constexpr uint64_t kFnvSeed = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void HashBytes(const void* data, size_t n, uint64_t* hash) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *hash ^= bytes[i];
    *hash *= kFnvPrime;
  }
}

void HashU64(uint64_t value, uint64_t* hash) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(value >> (8 * i));
  }
  HashBytes(bytes, sizeof(bytes), hash);
}

// Values recorded on the commit before the twin-label move table landed
// (serial engine, default options); that change kept all of them.

// Drains a serial GroupingEngine (default options) over the column's
// candidate pairs.
Golden RunGolden(const Column& column) {
  CandidateSet candidates = GenerateCandidates(column, CandidateGenOptions{});
  GroupingEngine engine(candidates.pairs, GroupingOptions{});
  Golden out;
  out.groups_hash = kFnvSeed;
  while (std::optional<Group> group = engine.Next()) {
    ++out.groups;
    HashU64(group->program.size(), &out.groups_hash);
    HashBytes(group->program.data(), group->program.size(), &out.groups_hash);
    HashU64(group->member_pair_indices.size(), &out.groups_hash);
    for (size_t index : group->member_pair_indices) {
      HashU64(index, &out.groups_hash);
    }
  }
  const IncrementalStats stats = engine.stats();
  out.searches = stats.searches;
  out.expansions = stats.expansions;
  return out;
}

void ExpectGolden(const Golden& got, const Golden& want) {
  EXPECT_EQ(got.groups, want.groups);
  EXPECT_EQ(got.groups_hash, want.groups_hash);
  EXPECT_EQ(got.searches, want.searches);
  EXPECT_EQ(got.expansions, want.expansions);
}

TEST(GroupingGoldenTest, Address) {
  AddressGenOptions options;
  options.scale = 0.1;
  options.seed = 1;
  ExpectGolden(RunGolden(GenerateAddressDataset(options).column),
               Golden{0x4eb24f61733d1034ull, 499, 539, 149559});
}

TEST(GroupingGoldenTest, AuthorList) {
  AuthorListGenOptions options;
  options.scale = 0.05;
  options.seed = 2;
  ExpectGolden(RunGolden(GenerateAuthorListDataset(options).column),
               Golden{0x4d98915352aed9d0ull, 298, 354, 175163});
}

TEST(GroupingGoldenTest, JournalTitle) {
  JournalTitleGenOptions options;
  options.scale = 0.1;
  options.seed = 3;
  ExpectGolden(RunGolden(GenerateJournalTitleDataset(options).column),
               Golden{0x22ad8805d532fa1cull, 162, 169, 1779});
}

}  // namespace
}  // namespace ustl
