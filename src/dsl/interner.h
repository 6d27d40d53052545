// Label interning. Every string function that appears as an edge label in
// any transformation graph is canonicalized to a dense LabelId, so that
// inverted-index keys, path comparison and group keys are integer
// operations. One interner lives per grouping run (typically per column or
// per structure group); LabelIds are not stable across interners.
//
// Labels are keyed by StringFn::Hash in a flat open-addressing table of
// ids; a hit is confirmed with StringFn::operator==, so a hash collision
// only costs a probe. Ids are dense and assigned in first-sight order.
#ifndef USTL_DSL_INTERNER_H_
#define USTL_DSL_INTERNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dsl/string_function.h"

namespace ustl {

/// Dense identifier of an interned string function.
using LabelId = uint32_t;

/// Bidirectional StringFn <-> LabelId map. Not thread-safe.
class LabelInterner {
 public:
  LabelInterner() = default;
  LabelInterner(const LabelInterner&) = delete;
  LabelInterner& operator=(const LabelInterner&) = delete;

  /// Returns the id for `fn`, interning it on first sight.
  LabelId Intern(const StringFn& fn);

  /// Looks up an id without interning; returns false if absent.
  bool Lookup(const StringFn& fn, LabelId* id) const;

  /// The function for an id. `id` must have been returned by Intern.
  const StringFn& Get(LabelId id) const;

  size_t size() const { return fns_.size(); }

 private:
  /// The slot holding `fn`'s id, or the empty slot where it would go.
  size_t FindSlot(const StringFn& fn, uint64_t hash) const;
  /// Doubles the table and re-inserts every id.
  void Grow();

  std::vector<LabelId> slots_;   // power-of-two size; kEmpty if free
  std::vector<uint64_t> hashes_;  // indexed by LabelId
  std::vector<StringFn> fns_;     // indexed by LabelId
};

/// A transformation path / program skeleton: the sequence of interned
/// labels along a root-to-sink path in a transformation graph. Two paths
/// are the same transformation iff their label sequences are equal
/// (footnote 3 in the paper).
using LabelPath = std::vector<LabelId>;

/// Renders a label path via the interner, for reports and debugging.
std::string PathToString(const LabelPath& path, const LabelInterner& interner);

}  // namespace ustl

#endif  // USTL_DSL_INTERNER_H_
