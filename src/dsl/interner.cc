#include "dsl/interner.h"

#include <limits>

#include "common/status.h"

namespace ustl {
namespace {

constexpr LabelId kEmpty = std::numeric_limits<LabelId>::max();

}  // namespace

size_t LabelInterner::FindSlot(const StringFn& fn, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  size_t slot = static_cast<size_t>(hash) & mask;
  while (slots_[slot] != kEmpty) {
    const LabelId id = slots_[slot];
    if (hashes_[id] == hash && fns_[id] == fn) break;
    slot = (slot + 1) & mask;
  }
  return slot;
}

void LabelInterner::Grow() {
  slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), kEmpty);
  const size_t mask = slots_.size() - 1;
  for (LabelId id = 0; id < fns_.size(); ++id) {
    size_t slot = static_cast<size_t>(hashes_[id]) & mask;
    while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
    slots_[slot] = id;
  }
}

LabelId LabelInterner::Intern(const StringFn& fn) {
  // Keep the load factor at most 1/2, so probe runs stay short.
  if (2 * (fns_.size() + 1) > slots_.size()) Grow();
  const uint64_t hash = fn.Hash();
  const size_t slot = FindSlot(fn, hash);
  if (slots_[slot] != kEmpty) return slots_[slot];
  const LabelId id = static_cast<LabelId>(fns_.size());
  USTL_CHECK(id != kEmpty);
  slots_[slot] = id;
  hashes_.push_back(hash);
  fns_.push_back(fn);
  return id;
}

bool LabelInterner::Lookup(const StringFn& fn, LabelId* id) const {
  if (slots_.empty()) return false;
  const size_t slot = FindSlot(fn, fn.Hash());
  if (slots_[slot] == kEmpty) return false;
  *id = slots_[slot];
  return true;
}

const StringFn& LabelInterner::Get(LabelId id) const {
  USTL_CHECK(id < fns_.size());
  return fns_[id];
}

std::string PathToString(const LabelPath& path,
                         const LabelInterner& interner) {
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += " (+) ";
    out += interner.Get(path[i]).ToString();
  }
  return out;
}

}  // namespace ustl
