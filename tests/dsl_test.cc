// Tests for src/dsl: position functions (Appendix B, Example B.1), string
// functions (Example B.2, affix extension of Appendix D), programs
// (Example B.3 / Figures 3-4), and the label interner.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dsl/interner.h"
#include "dsl/position.h"
#include "dsl/program.h"
#include "dsl/string_function.h"

namespace ustl {
namespace {

constexpr const char* kLeeMary = "Lee, Mary";  // |s| = 9

// --- Example B.1. ---

TEST(PosFnTest, ConstPosForward) {
  EXPECT_EQ(PosFn::ConstPos(2).Eval(kLeeMary), 2);
  EXPECT_EQ(PosFn::ConstPos(1).Eval(kLeeMary), 1);
  EXPECT_EQ(PosFn::ConstPos(10).Eval(kLeeMary), 10);  // |s|+1 is valid
  EXPECT_FALSE(PosFn::ConstPos(11).Eval(kLeeMary).has_value());
}

TEST(PosFnTest, ConstPosBackward) {
  // ConstPos(-5) = |s| + 2 + k = 9 + 2 - 5 = 6 (Example B.1).
  EXPECT_EQ(PosFn::ConstPos(-5).Eval(kLeeMary), 6);
  EXPECT_EQ(PosFn::ConstPos(-1).Eval(kLeeMary), 10);
  EXPECT_EQ(PosFn::ConstPos(-10).Eval(kLeeMary), 1);
  EXPECT_FALSE(PosFn::ConstPos(-11).Eval(kLeeMary).has_value());
}

TEST(PosFnTest, MatchPosSecondCapital) {
  // MatchPos(TC, 2, B) = 6 and MatchPos(TC, 2, E) = 7 (Example B.1).
  Term tc = Term::Regex(CharClass::kUpper);
  EXPECT_EQ(PosFn::MatchPos(tc, 2, Dir::kBegin).Eval(kLeeMary), 6);
  EXPECT_EQ(PosFn::MatchPos(tc, 2, Dir::kEnd).Eval(kLeeMary), 7);
}

TEST(PosFnTest, MatchPosBackwardIndex) {
  // The -1st match is the last one: for TC in "Lee, Mary" that is "M".
  Term tc = Term::Regex(CharClass::kUpper);
  EXPECT_EQ(PosFn::MatchPos(tc, -1, Dir::kBegin).Eval(kLeeMary), 6);
  EXPECT_EQ(PosFn::MatchPos(tc, -2, Dir::kBegin).Eval(kLeeMary), 1);
  EXPECT_FALSE(PosFn::MatchPos(tc, -3, Dir::kBegin).Eval(kLeeMary).has_value());
}

TEST(PosFnTest, MatchPosTooFewMatches) {
  Term td = Term::Regex(CharClass::kDigit);
  EXPECT_FALSE(PosFn::MatchPos(td, 1, Dir::kBegin).Eval(kLeeMary).has_value());
}

TEST(PosFnTest, FigureThreePositions) {
  // Figure 4: PA = 1, PB = 4, PC = 6, PD = 7 on "Lee, Mary".
  Term tc = Term::Regex(CharClass::kUpper);
  Term tl = Term::Regex(CharClass::kLower);
  Term tb = Term::Regex(CharClass::kSpace);
  EXPECT_EQ(PosFn::MatchPos(tc, 1, Dir::kBegin).Eval(kLeeMary), 1);   // PA
  EXPECT_EQ(PosFn::MatchPos(tl, 1, Dir::kEnd).Eval(kLeeMary), 4);    // PB
  EXPECT_EQ(PosFn::MatchPos(tb, 1, Dir::kEnd).Eval(kLeeMary), 6);    // PC
  EXPECT_EQ(PosFn::MatchPos(tc, -1, Dir::kEnd).Eval(kLeeMary), 7);   // PD
}

// Equal position functions hash equal, and the interner tells every listed
// one apart (each wrapped as SubStr(p, p)), down to a constant term's
// literal.
std::vector<PosFn> DistinctPosFns() {
  Term tc = Term::Regex(CharClass::kUpper);
  return {
      PosFn::ConstPos(1),
      PosFn::ConstPos(-1),
      PosFn::MatchPos(tc, 1, Dir::kBegin),
      PosFn::MatchPos(tc, 1, Dir::kEnd),
      PosFn::MatchPos(tc, -1, Dir::kBegin),
      PosFn::MatchPos(Term::Constant("x"), 1, Dir::kBegin),
      PosFn::MatchPos(Term::Constant("y"), 1, Dir::kBegin),
  };
}

TEST(PosFnTest, HashAndInternDistinguishEveryField) {
  std::vector<PosFn> fns = DistinctPosFns();
  std::vector<PosFn> again = DistinctPosFns();
  LabelInterner interner;
  std::vector<LabelId> ids;
  for (const PosFn& fn : fns) {
    ids.push_back(interner.Intern(StringFn::SubStr(fn, fn)));
  }
  for (size_t i = 0; i < fns.size(); ++i) {
    EXPECT_EQ(fns[i].Hash(), again[i].Hash()) << i;
    EXPECT_EQ(interner.Intern(StringFn::SubStr(again[i], again[i])), ids[i]);
    for (size_t j = 0; j < fns.size(); ++j) {
      EXPECT_EQ(fns[i] == again[j], i == j);
      EXPECT_EQ(ids[i] == ids[j], i == j);
    }
  }
  EXPECT_EQ(interner.size(), fns.size());
}

// --- String functions (Example B.2, Appendix D). ---

TEST(StringFnTest, ConstantStr) {
  StringFn f = StringFn::ConstantStr("MIT");
  EXPECT_EQ(f.Eval(kLeeMary), std::vector<std::string>{"MIT"});
  EXPECT_TRUE(f.CanProduce("anything", "MIT"));
  EXPECT_FALSE(f.CanProduce("anything", "MI"));
}

TEST(StringFnTest, SubStrExampleB2) {
  // SubStr(MatchPos(TC,1,B), MatchPos(Tl,1,E)) = "Lee" on "Lee, Mary".
  Term tc = Term::Regex(CharClass::kUpper);
  Term tl = Term::Regex(CharClass::kLower);
  StringFn f = StringFn::SubStr(PosFn::MatchPos(tc, 1, Dir::kBegin),
                                PosFn::MatchPos(tl, 1, Dir::kEnd));
  EXPECT_EQ(f.Eval(kLeeMary), std::vector<std::string>{"Lee"});
  EXPECT_TRUE(f.CanProduce(kLeeMary, "Lee"));
}

TEST(StringFnTest, SubStrFailsWhenPositionsInvalid) {
  Term td = Term::Regex(CharClass::kDigit);
  StringFn f = StringFn::SubStr(PosFn::MatchPos(td, 1, Dir::kBegin),
                                PosFn::MatchPos(td, 1, Dir::kEnd));
  EXPECT_TRUE(f.Eval(kLeeMary).empty());
  // l >= r also fails.
  StringFn g = StringFn::SubStr(PosFn::ConstPos(5), PosFn::ConstPos(2));
  EXPECT_TRUE(g.Eval(kLeeMary).empty());
}

TEST(StringFnTest, PrefixEnumeratesAllPrefixes) {
  // Prefix(Tl, 1) on "Street": the 1st lowercase match is "treet"; outputs
  // are t, tr, tre, tree, treet (Appendix D).
  StringFn f = StringFn::Prefix(Term::Regex(CharClass::kLower), 1);
  EXPECT_EQ(f.Eval("Street"),
            (std::vector<std::string>{"t", "tr", "tre", "tree", "treet"}));
  EXPECT_TRUE(f.CanProduce("Street", "t"));
  EXPECT_TRUE(f.CanProduce("Avenue", "ve"));  // prefix of "venue"
  EXPECT_FALSE(f.CanProduce("Street", "re"));
}

TEST(StringFnTest, SuffixEnumeratesAllSuffixes) {
  StringFn f = StringFn::Suffix(Term::Regex(CharClass::kLower), 1);
  EXPECT_EQ(f.Eval("abc"), (std::vector<std::string>{"c", "bc", "abc"}));
  EXPECT_TRUE(f.CanProduce("abc", "bc"));
  EXPECT_FALSE(f.CanProduce("abc", "ab"));
}

TEST(StringFnTest, AffixNegativeK) {
  // Negative k counts matches from the end, mirroring MatchPos.
  StringFn f = StringFn::Prefix(Term::Regex(CharClass::kLower), -1);
  EXPECT_TRUE(f.CanProduce("Lee, Mary", "ar"));   // prefix of "ary"
  EXPECT_FALSE(f.CanProduce("Lee, Mary", "ee"));  // that's match 1, not -1
}

std::vector<StringFn> DistinctStringFns() {
  Term tl = Term::Regex(CharClass::kLower);
  auto constant_term_substr = [](const char* literal) {
    Term term = Term::Constant(literal);
    return StringFn::SubStr(PosFn::MatchPos(term, 1, Dir::kBegin),
                            PosFn::MatchPos(term, 1, Dir::kEnd));
  };
  return {
      StringFn::ConstantStr("a"),
      StringFn::ConstantStr("b"),
      StringFn::SubStr(PosFn::ConstPos(1), PosFn::ConstPos(2)),
      constant_term_substr("x"),
      constant_term_substr("y"),
      StringFn::Prefix(tl, 1),
      StringFn::Suffix(tl, 1),
      StringFn::Prefix(tl, 2),
  };
}

TEST(StringFnTest, HashAndInternDistinguishAcrossKinds) {
  std::vector<StringFn> fns = DistinctStringFns();
  std::vector<StringFn> again = DistinctStringFns();
  LabelInterner interner;
  std::vector<LabelId> ids;
  for (const StringFn& fn : fns) ids.push_back(interner.Intern(fn));
  for (size_t i = 0; i < fns.size(); ++i) {
    EXPECT_EQ(fns[i].Hash(), again[i].Hash()) << i;
    EXPECT_EQ(interner.Intern(again[i]), ids[i]);
    for (size_t j = 0; j < fns.size(); ++j) {
      EXPECT_EQ(fns[i] == again[j], i == j);
      EXPECT_EQ(ids[i] == ids[j], i == j);
    }
  }
  EXPECT_EQ(interner.size(), fns.size());
}

// --- Programs (Example B.3 / Figures 3-4). ---

Program MLeeProgram() {
  Term tc = Term::Regex(CharClass::kUpper);
  Term tl = Term::Regex(CharClass::kLower);
  Term tb = Term::Regex(CharClass::kSpace);
  StringFn f1 = StringFn::SubStr(PosFn::MatchPos(tc, 1, Dir::kBegin),
                                 PosFn::MatchPos(tl, 1, Dir::kEnd));
  StringFn f2 = StringFn::SubStr(PosFn::MatchPos(tb, 1, Dir::kEnd),
                                 PosFn::MatchPos(tc, -1, Dir::kEnd));
  StringFn f3 = StringFn::ConstantStr(". ");
  return Program({f2, f3, f1});
}

TEST(ProgramTest, ExampleB3ProducesMLee) {
  Program rho = MLeeProgram();
  Result<std::string> out = rho.EvaluateDeterministic(kLeeMary);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "M. Lee");
  EXPECT_TRUE(rho.ConsistentWith(kLeeMary, "M. Lee"));
  EXPECT_FALSE(rho.ConsistentWith(kLeeMary, "M. Lee "));
}

TEST(ProgramTest, SameProgramGeneralizesToSmithJames) {
  // The whole point of pivot paths: the Example B.3 program also maps
  // "Smith, James" to "J. Smith".
  Program rho = MLeeProgram();
  Result<std::string> out = rho.EvaluateDeterministic("Smith, James");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "J. Smith");
}

TEST(ProgramTest, AffixProgramStreetSt) {
  // Appendix D: SubStr(TC-begin, TC-end) (+) Prefix(Tl, 1) is consistent
  // with both Street -> St and Avenue -> Ave.
  Term tc = Term::Regex(CharClass::kUpper);
  Term tl = Term::Regex(CharClass::kLower);
  Program rho({StringFn::SubStr(PosFn::MatchPos(tc, 1, Dir::kBegin),
                                PosFn::MatchPos(tc, 1, Dir::kEnd)),
               StringFn::Prefix(tl, 1)});
  EXPECT_TRUE(rho.ConsistentWith("Street", "St"));
  EXPECT_TRUE(rho.ConsistentWith("Avenue", "Ave"));
  EXPECT_FALSE(rho.ConsistentWith("Street", "Sx"));
}

TEST(ProgramTest, EvaluateEnumeratesAffixChoices) {
  Program rho({StringFn::Prefix(Term::Regex(CharClass::kLower), 1)});
  Result<std::vector<std::string>> outs = rho.Evaluate("abc");
  ASSERT_TRUE(outs.ok());
  EXPECT_EQ(*outs, (std::vector<std::string>{"a", "ab", "abc"}));
}

TEST(ProgramTest, EvaluateRespectsOutputCap) {
  // Two affix functions over a long run explode combinatorially; the cap
  // turns that into ResourceExhausted instead of an OOM.
  Term tl = Term::Regex(CharClass::kLower);
  Program rho({StringFn::Prefix(tl, 1), StringFn::Prefix(tl, 1)});
  std::string s(200, 'a');
  Result<std::vector<std::string>> outs = rho.Evaluate(s, 100);
  EXPECT_FALSE(outs.ok());
  EXPECT_EQ(outs.status().code(), StatusCode::kResourceExhausted);
}

TEST(ProgramTest, EvaluateDeterministicRejectsMultiValued) {
  Program rho({StringFn::Prefix(Term::Regex(CharClass::kLower), 1)});
  EXPECT_FALSE(rho.EvaluateDeterministic("abc").ok());
}

TEST(ProgramTest, EmptyProgramInconsistent) {
  Program rho;
  EXPECT_FALSE(rho.ConsistentWith("a", "a"));
}

TEST(ProgramTest, FunctionFailureYieldsNoOutputs) {
  Term td = Term::Regex(CharClass::kDigit);
  Program rho({StringFn::SubStr(PosFn::MatchPos(td, 1, Dir::kBegin),
                                PosFn::MatchPos(td, 1, Dir::kEnd))});
  Result<std::vector<std::string>> outs = rho.Evaluate("letters only");
  ASSERT_TRUE(outs.ok());
  EXPECT_TRUE(outs->empty());
  EXPECT_FALSE(rho.ConsistentWith("letters only", "x"));
}

// --- Interner. ---

TEST(InternerTest, RoundTrip) {
  LabelInterner interner;
  StringFn f = StringFn::ConstantStr("abc");
  LabelId id = interner.Intern(f);
  EXPECT_EQ(interner.Get(id), f);
  EXPECT_EQ(interner.Intern(f), id);  // idempotent
  EXPECT_EQ(interner.size(), 1u);
}

TEST(InternerTest, IdsFollowFirstSightAcrossTableGrowth) {
  // Enough labels to grow the hash table several times; ids stay dense
  // and in first-sight order, and every label is still found.
  LabelInterner interner;
  constexpr int kLabels = 1000;
  for (int i = 0; i < kLabels; ++i) {
    EXPECT_EQ(interner.Intern(StringFn::ConstantStr(std::to_string(i))),
              static_cast<LabelId>(i));
  }
  for (int i = kLabels - 1; i >= 0; --i) {
    LabelId id = 0;
    ASSERT_TRUE(interner.Lookup(StringFn::ConstantStr(std::to_string(i)), &id));
    EXPECT_EQ(id, static_cast<LabelId>(i));
    EXPECT_EQ(interner.Intern(StringFn::ConstantStr(std::to_string(i))), id);
  }
  EXPECT_EQ(interner.size(), static_cast<size_t>(kLabels));
}

TEST(InternerTest, DistinctFunctionsGetDistinctIds) {
  LabelInterner interner;
  LabelId a = interner.Intern(StringFn::ConstantStr("a"));
  LabelId b = interner.Intern(StringFn::ConstantStr("b"));
  LabelId c = interner.Intern(
      StringFn::Prefix(Term::Regex(CharClass::kLower), 1));
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_EQ(interner.size(), 3u);
}

TEST(InternerTest, LookupWithoutInterning) {
  LabelInterner interner;
  LabelId id;
  EXPECT_FALSE(interner.Lookup(StringFn::ConstantStr("a"), &id));
  LabelId interned = interner.Intern(StringFn::ConstantStr("a"));
  ASSERT_TRUE(interner.Lookup(StringFn::ConstantStr("a"), &id));
  EXPECT_EQ(id, interned);
}

TEST(InternerTest, PathToString) {
  LabelInterner interner;
  LabelPath path = {interner.Intern(StringFn::ConstantStr("x")),
                    interner.Intern(StringFn::ConstantStr("y"))};
  EXPECT_EQ(PathToString(path, interner),
            "ConstantStr(\"x\") (+) ConstantStr(\"y\")");
}

}  // namespace
}  // namespace ustl
