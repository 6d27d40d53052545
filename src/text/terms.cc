#include "text/terms.h"

#include "common/hash.h"
#include "common/status.h"
#include "common/string_util.h"

namespace ustl {

Term Term::Regex(CharClass c) {
  USTL_CHECK(c != CharClass::kOther);
  Term t;
  t.is_regex_ = true;
  t.char_class_ = c;
  return t;
}

Term Term::Constant(std::string literal) {
  USTL_CHECK(!literal.empty());
  Term t;
  t.is_regex_ = false;
  t.char_class_ = CharClass::kOther;
  t.literal_ = std::move(literal);
  return t;
}

std::string Term::ToString() const {
  if (is_regex_) return CharClassTermName(char_class_);
  return "T\"" + EscapeForDisplay(literal_) + "\"";
}

uint64_t Term::Hash() const {
  uint64_t hash = HashMix(kHashSeed, is_regex_);
  hash = HashMix(hash, static_cast<uint64_t>(char_class_));
  return HashFinish(HashBytes(hash, literal_));
}

std::vector<TermMatch> FindMatches(const Term& term, std::string_view s) {
  std::vector<TermMatch> out;
  if (term.is_regex()) {
    const CharClass want = term.char_class();
    size_t i = 0;
    while (i < s.size()) {
      if (ClassOf(s[i]) == want) {
        size_t j = i + 1;
        while (j < s.size() && ClassOf(s[j]) == want) ++j;
        out.push_back(TermMatch{static_cast<int>(i) + 1,
                                static_cast<int>(j) + 1});
        i = j;
      } else {
        ++i;
      }
    }
  } else {
    const std::string& lit = term.literal();
    size_t i = 0;
    while (i + lit.size() <= s.size()) {
      if (s.substr(i, lit.size()) == lit) {
        out.push_back(TermMatch{static_cast<int>(i) + 1,
                                static_cast<int>(i + lit.size()) + 1});
        i += lit.size();  // non-overlapping leftmost matches
      } else {
        ++i;
      }
    }
  }
  return out;
}

std::vector<Token> ClassTokens(std::string_view s) {
  std::vector<Token> out;
  size_t i = 0;
  while (i < s.size()) {
    CharClass c = ClassOf(s[i]);
    size_t j = i + 1;
    if (c != CharClass::kOther) {
      while (j < s.size() && ClassOf(s[j]) == c) ++j;
    }
    // kOther characters are single-character terms (Section 7.2), so a run
    // of punctuation becomes one token per character.
    out.push_back(Token{std::string(s.substr(i, j - i)), c,
                        static_cast<int>(i) + 1, static_cast<int>(j) + 1});
    i = j;
  }
  return out;
}

std::vector<std::string> WhitespaceTokens(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && ClassOf(s[i]) == CharClass::kSpace) ++i;
    size_t j = i;
    while (j < s.size() && ClassOf(s[j]) != CharClass::kSpace) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

}  // namespace ustl
