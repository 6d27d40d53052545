// Terms and term matching (Appendix B). A term is either one of the four
// regex-based terms (maximal character-class runs) or a constant-string term
// that matches exactly one literal string. Positions are 1-based throughout,
// exactly as in the paper, so that s[i, j) denotes characters i .. j-1 and
// the examples in Figures 3-5 hold verbatim.
#ifndef USTL_TEXT_TERMS_H_
#define USTL_TEXT_TERMS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "text/char_class.h"

namespace ustl {

/// A term usable in MatchPos: a regex character-class term or a constant
/// string. Value type with full ordering so terms can key maps.
class Term {
 public:
  /// Regex-based term for `c` (must not be kOther).
  static Term Regex(CharClass c);
  /// Constant-string term matching exactly `literal` (non-empty).
  static Term Constant(std::string literal);

  bool is_regex() const { return is_regex_; }
  CharClass char_class() const { return char_class_; }
  const std::string& literal() const { return literal_; }

  /// "Td", "Tl", "TC", "Tb" or "T\"literal\"".
  std::string ToString() const;

  /// Structural hash; equal terms hash equal.
  uint64_t Hash() const;

  bool operator==(const Term& o) const {
    return is_regex_ == o.is_regex_ && char_class_ == o.char_class_ &&
           literal_ == o.literal_;
  }
  bool operator<(const Term& o) const {
    if (is_regex_ != o.is_regex_) return is_regex_ && !o.is_regex_;
    if (char_class_ != o.char_class_) return char_class_ < o.char_class_;
    return literal_ < o.literal_;
  }

 private:
  Term() = default;

  bool is_regex_ = true;
  CharClass char_class_ = CharClass::kDigit;
  std::string literal_;
};

/// A match of a term in a string: the 1-based half-open span s[begin, end).
struct TermMatch {
  int begin = 0;  // 1-based, inclusive
  int end = 0;    // 1-based, exclusive

  bool operator==(const TermMatch& o) const {
    return begin == o.begin && end == o.end;
  }
};

/// All matches of `term` in `s`, left to right.
/// Regex terms match maximal runs of their character class; constant terms
/// match non-overlapping leftmost occurrences.
std::vector<TermMatch> FindMatches(const Term& term, std::string_view s);

/// The tokens of `s`: maximal runs of a single character class. Each token
/// carries its span. Used for constant-term candidates and scoring (App. E)
/// and by the LCS aligner.
struct Token {
  std::string text;
  CharClass char_class;
  int begin = 0;  // 1-based
  int end = 0;    // 1-based, exclusive
};
std::vector<Token> ClassTokens(std::string_view s);

/// Splits on whitespace into word tokens (used by the Appendix-A aligner).
std::vector<std::string> WhitespaceTokens(std::string_view s);

}  // namespace ustl

#endif  // USTL_TEXT_TERMS_H_
