// Constant-string scoring (Appendix E). Constant terms that appear often
// within a structure group but rarely elsewhere make good labels ("Mr." in
// name columns); single characters are frequent everywhere and score low.
// The score is freqStruc(tau) / sqrt(freqGlobal(tau)).
#ifndef USTL_GRAPH_TERM_SCORER_H_
#define USTL_GRAPH_TERM_SCORER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace ustl {

/// Scores constant-string terms for the static orders of Appendix E.
/// Implementations must be immutable during a grouping run.
class TermScorer {
 public:
  virtual ~TermScorer() = default;
  /// Higher is better; 0 means "unknown token". Only class tokens (one
  /// character, or a run of one non-kOther class) may score above 0:
  /// GraphBuilder asks for nothing else and takes every other string's
  /// score to be 0.
  virtual double Score(std::string_view token) const = 0;
};

/// Token frequencies over a corpus of strings (class tokens = maximal
/// character-class runs). One instance holds the whole column's counts and
/// is shared by every structure group's scorer.
///
/// The map is keyed by views into `tokens_`, so Get looks a token up
/// without building a string. A deque never relocates its elements, even
/// when it is moved, so moves are safe; a copy would keep views into the
/// source, so copying is deleted.
class CorpusFrequency {
 public:
  CorpusFrequency() = default;
  CorpusFrequency(const CorpusFrequency&) = delete;
  CorpusFrequency& operator=(const CorpusFrequency&) = delete;
  CorpusFrequency(CorpusFrequency&&) = default;
  CorpusFrequency& operator=(CorpusFrequency&&) = default;

  /// Counts the class tokens of one string.
  void Add(std::string_view s);
  int64_t Get(std::string_view token) const;

 private:
  std::deque<std::string> tokens_;
  std::unordered_map<std::string_view, int64_t> freq_;
};

/// freqStruc / sqrt(freqGlobal). Build one per structure group: feed the
/// group's strings to AddStructureString; `global` is the shared
/// whole-column frequency table (must outlive the scorer).
class FrequencyTermScorer : public TermScorer {
 public:
  explicit FrequencyTermScorer(const CorpusFrequency* global)
      : global_(global) {}

  /// Counts the class tokens of a string belonging to the structure group.
  void AddStructureString(std::string_view s) { struc_.Add(s); }

  double Score(std::string_view token) const override;

 private:
  CorpusFrequency struc_;
  const CorpusFrequency* global_;
};

}  // namespace ustl

#endif  // USTL_GRAPH_TERM_SCORER_H_
