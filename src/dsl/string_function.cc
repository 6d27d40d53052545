#include "dsl/string_function.h"

#include "common/hash.h"
#include "common/status.h"
#include "common/string_util.h"

namespace ustl {
namespace {

// Resolves the k-th (or m+1+k-th for negative k) match of a term.
std::optional<TermMatch> ResolveMatch(const Term& term, int k,
                                      std::string_view s) {
  auto matches = FindMatches(term, s);
  const int m = static_cast<int>(matches.size());
  int idx;
  if (k > 0 && k <= m) {
    idx = k;
  } else if (k < 0 && -k <= m) {
    idx = m + 1 + k;
  } else {
    return std::nullopt;
  }
  return matches[idx - 1];
}

}  // namespace

StringFn StringFn::ConstantStr(std::string value) {
  // String functions produce non-empty pieces (graph edges span at least
  // one character); an empty constant would make Eval and CanProduce
  // disagree about the empty output.
  USTL_CHECK(!value.empty());
  StringFn f;
  f.kind_ = Kind::kConstantStr;
  f.constant_ = std::move(value);
  return f;
}

StringFn StringFn::SubStr(PosFn left, PosFn right) {
  StringFn f;
  f.kind_ = Kind::kSubStr;
  f.left_ = std::move(left);
  f.right_ = std::move(right);
  return f;
}

StringFn StringFn::Prefix(Term term, int k) {
  USTL_CHECK(term.is_regex());
  USTL_CHECK(k != 0);
  StringFn f;
  f.kind_ = Kind::kPrefix;
  f.term_ = std::move(term);
  f.k_ = k;
  return f;
}

StringFn StringFn::Suffix(Term term, int k) {
  USTL_CHECK(term.is_regex());
  USTL_CHECK(k != 0);
  StringFn f;
  f.kind_ = Kind::kSuffix;
  f.term_ = std::move(term);
  f.k_ = k;
  return f;
}

std::vector<std::string> StringFn::Eval(std::string_view s) const {
  switch (kind_) {
    case Kind::kConstantStr:
      return {constant_};
    case Kind::kSubStr: {
      auto l = left_.Eval(s);
      auto r = right_.Eval(s);
      if (!l || !r || *l >= *r) return {};
      return {std::string(s.substr(*l - 1, *r - *l))};
    }
    case Kind::kPrefix: {
      auto match = ResolveMatch(term_, k_, s);
      if (!match) return {};
      std::vector<std::string> out;
      std::string_view text = s.substr(match->begin - 1,
                                       match->end - match->begin);
      for (size_t len = 1; len <= text.size(); ++len) {
        out.emplace_back(text.substr(0, len));
      }
      return out;
    }
    case Kind::kSuffix: {
      auto match = ResolveMatch(term_, k_, s);
      if (!match) return {};
      std::vector<std::string> out;
      std::string_view text = s.substr(match->begin - 1,
                                       match->end - match->begin);
      for (size_t len = 1; len <= text.size(); ++len) {
        out.emplace_back(text.substr(text.size() - len));
      }
      return out;
    }
  }
  return {};
}

bool StringFn::CanProduce(std::string_view s, std::string_view out) const {
  if (out.empty()) return false;
  switch (kind_) {
    case Kind::kConstantStr:
      return constant_ == out;
    case Kind::kSubStr: {
      auto l = left_.Eval(s);
      auto r = right_.Eval(s);
      if (!l || !r || *l >= *r) return false;
      return s.substr(*l - 1, *r - *l) == out;
    }
    case Kind::kPrefix: {
      auto match = ResolveMatch(term_, k_, s);
      if (!match) return false;
      std::string_view text = s.substr(match->begin - 1,
                                       match->end - match->begin);
      return out.size() <= text.size() && StartsWith(text, out);
    }
    case Kind::kSuffix: {
      auto match = ResolveMatch(term_, k_, s);
      if (!match) return false;
      std::string_view text = s.substr(match->begin - 1,
                                       match->end - match->begin);
      return out.size() <= text.size() && EndsWith(text, out);
    }
  }
  return false;
}

std::string StringFn::ToString() const {
  switch (kind_) {
    case Kind::kConstantStr:
      return "ConstantStr(\"" + EscapeForDisplay(constant_) + "\")";
    case Kind::kSubStr:
      return "SubStr(" + left_.ToString() + ", " + right_.ToString() + ")";
    case Kind::kPrefix:
      return "Prefix(" + term_.ToString() + ", " + std::to_string(k_) + ")";
    case Kind::kSuffix:
      return "Suffix(" + term_.ToString() + ", " + std::to_string(k_) + ")";
  }
  return "?";
}

uint64_t StringFn::Hash() const {
  uint64_t hash = HashMix(kHashSeed, static_cast<uint64_t>(kind_));
  switch (kind_) {
    case Kind::kConstantStr:
      hash = HashBytes(hash, constant_);
      break;
    case Kind::kSubStr:
      hash = HashMix(HashMix(hash, left_.Hash()), right_.Hash());
      break;
    case Kind::kPrefix:
    case Kind::kSuffix:
      hash = HashMix(HashMix(hash, term_.Hash()), static_cast<uint32_t>(k_));
      break;
  }
  return HashFinish(hash);
}

bool StringFn::operator==(const StringFn& o) const {
  if (kind_ != o.kind_) return false;
  switch (kind_) {
    case Kind::kConstantStr:
      return constant_ == o.constant_;
    case Kind::kSubStr:
      return left_ == o.left_ && right_ == o.right_;
    case Kind::kPrefix:
    case Kind::kSuffix:
      return term_ == o.term_ && k_ == o.k_;
  }
  return false;
}

bool StringFn::operator<(const StringFn& o) const {
  if (kind_ != o.kind_) return kind_ < o.kind_;
  switch (kind_) {
    case Kind::kConstantStr:
      return constant_ < o.constant_;
    case Kind::kSubStr:
      if (!(left_ == o.left_)) return left_ < o.left_;
      return right_ < o.right_;
    case Kind::kPrefix:
    case Kind::kSuffix:
      if (!(term_ == o.term_)) return term_ < o.term_;
      return k_ < o.k_;
  }
  return false;
}

}  // namespace ustl
