/**
 * @file
 * iflint test suite.
 *
 * Three tiers:
 *   - pure library tests (lexer, tokenizer, allow-file parser, graph
 *     analysis over synthetic call graphs, objdump-output parsers over
 *     canned text) that need no fixtures at all;
 *   - pass-1 fixture tests driven by the good/bad source pairs under
 *     fixtures/pass1/, located via the IFLINT_FIXTURE_DIR environment
 *     variable set by the ctest registration;
 *   - pass-2 integration tests over fixture objects compiled by CMake
 *     at -O2 -DNDEBUG (IFLINT_PASS2_{BAD,GOOD,CUT}_DIR), proving the
 *     binary walk really catches a planted `new` under an IF_HOT root
 *     and really honors IF_COLD_ALLOC frontiers.
 */

#include "iflint_lib.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

namespace {

using iflint::Finding;

std::string
envPath(const char* var)
{
    const char* v = std::getenv(var);
    return v && *v ? std::string(v) : std::string();
}

/** Run pass 1 over exactly one fixture file (each fixture is
 *  self-contained: unordered-name collection sees only that file, so
 *  fixtures cannot contaminate each other's alias sets). */
iflint::Pass1Result
lintFixture(const std::string& name)
{
    const std::string dir = envPath("IFLINT_FIXTURE_DIR");
    EXPECT_FALSE(dir.empty()) << "IFLINT_FIXTURE_DIR not set";
    return iflint::runPass1({dir + "/" + name});
}

std::vector<std::string>
rulesOf(const iflint::Pass1Result& r)
{
    std::vector<std::string> out;
    out.reserve(r.findings.size());
    for (const Finding& f : r.findings)
        out.push_back(f.rule);
    return out;
}

// ------------------------------------------------------------------ lexer

TEST(Lexer, BlanksCommentsAndStringsButKeepsLineStructure)
{
    const std::string src =
        "int a; // trailing comment with assert(\n"
        "const char* s = \"assert(rand())\";\n"
        "/* block\n"
        "   assert( */ int b;\n";
    const iflint::FileLex lex = iflint::lexFile(src);

    // Newlines survive so token line numbers stay meaningful.
    EXPECT_EQ(std::count(lex.code.begin(), lex.code.end(), '\n'),
              std::count(src.begin(), src.end(), '\n'));
    // Neither the comment text nor the literal text remains in code.
    EXPECT_EQ(lex.code.find("trailing"), std::string::npos);
    EXPECT_EQ(lex.code.find("rand"), std::string::npos);
    EXPECT_NE(lex.code.find("int a;"), std::string::npos);
    EXPECT_NE(lex.code.find("int b;"), std::string::npos);

    // Comments are captured with their line spans.
    ASSERT_EQ(lex.comments.size(), 2u);
    EXPECT_EQ(lex.comments[0].lineBegin, 1);
    EXPECT_EQ(lex.comments[1].lineBegin, 3);
    EXPECT_EQ(lex.comments[1].lineEnd, 4);
}

TEST(Lexer, CharLiteralsAndEscapesDoNotConfuseStringScanning)
{
    const std::string src =
        "char q = '\"';\n"
        "const char* t = \"a\\\"b\"; int after = 1;\n";
    const iflint::FileLex lex = iflint::lexFile(src);
    EXPECT_NE(lex.code.find("int after = 1;"), std::string::npos);
    EXPECT_TRUE(lex.comments.empty());
}

TEST(Tokenizer, ClassifiesIdentifiersNumbersAndPunctuation)
{
    const std::vector<iflint::Token> toks =
        iflint::tokenize("foo42 << 1u;\nbar(0x1f);");
    ASSERT_GE(toks.size(), 8u);
    EXPECT_EQ(toks[0].kind, iflint::Token::Ident);
    EXPECT_EQ(toks[0].text, "foo42");
    EXPECT_EQ(toks[0].line, 1);
    EXPECT_EQ(toks[1].kind, iflint::Token::Punct);
    EXPECT_EQ(toks[1].text, "<<");
    EXPECT_EQ(toks[2].kind, iflint::Token::Num);
    EXPECT_EQ(toks[2].text, "1u");
    // Second line gets line number 2.
    const auto bar = std::find_if(toks.begin(), toks.end(),
                                  [](const iflint::Token& t) {
                                      return t.text == "bar";
                                  });
    ASSERT_NE(bar, toks.end());
    EXPECT_EQ(bar->line, 2);
}

TEST(Tokenizer, CollectsUnorderedContainerNamesAndAliases)
{
    const auto toks = iflint::tokenize(
        "std::unordered_map<int, int> table;\n"
        "using AliasMap = std::unordered_map<long, long>;\n"
        "AliasMap byAlias;\n"
        "std::map<int, int> ordered;\n");
    std::set<std::string> names, aliases;
    iflint::collectUnorderedNames(toks, names, aliases);
    EXPECT_TRUE(names.count("table"));
    EXPECT_TRUE(aliases.count("AliasMap"));
    EXPECT_TRUE(names.count("byAlias"));
    EXPECT_FALSE(names.count("ordered"));
}

// ------------------------------------------------------- pass 1 fixtures

struct RuleFixtureCase {
    const char* bad;
    const char* good;
    const char* rule;
    int expected;   // findings in the bad fixture
};

class Pass1RuleFixtures : public testing::TestWithParam<RuleFixtureCase> {};

TEST_P(Pass1RuleFixtures, BadTripsExactlyItsRuleGoodIsClean)
{
    const RuleFixtureCase& c = GetParam();

    const iflint::Pass1Result bad = lintFixture(c.bad);
    EXPECT_EQ(static_cast<int>(bad.findings.size()), c.expected)
        << "unexpected finding count in " << c.bad;
    for (const Finding& f : bad.findings)
        EXPECT_EQ(f.rule, c.rule) << f.file << ":" << f.line << " "
                                  << f.detail;

    const iflint::Pass1Result good = lintFixture(c.good);
    EXPECT_TRUE(good.findings.empty())
        << c.good << " tripped: [" << good.findings[0].rule << "] "
        << good.findings[0].detail;
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, Pass1RuleFixtures,
    testing::Values(
        RuleFixtureCase{"bad_unordered_iter.cc", "good_unordered_iter.cc",
                        "unordered-iter", 3},
        RuleFixtureCase{"bad_nondet.cc", "good_nondet.cc",
                        "nondet-source", 4},
        RuleFixtureCase{"bad_ptr_hash.cc", "good_ptr_hash.cc",
                        "ptr-hash", 2},
        RuleFixtureCase{"bad_raw_shift.cc", "good_raw_shift.cc",
                        "raw-shift", 2},
        RuleFixtureCase{"bad_raw_assert.cc", "good_raw_assert.cc",
                        "raw-assert", 1},
        RuleFixtureCase{"sim/bad_std_function.cc",
                        "sim/good_std_function.cc", "std-function", 1},
        RuleFixtureCase{"bad_ndebug_layout.cc", "good_ndebug_layout.cc",
                        "ndebug-layout", 5}),
    [](const testing::TestParamInfo<RuleFixtureCase>& pinfo) {
        std::string n = pinfo.param.rule;
        std::replace(n.begin(), n.end(), '-', '_');
        return n;
    });

TEST(Pass1Suppressions, AllThreeShapesAreHonoredWhenJustified)
{
    const iflint::Pass1Result r = lintFixture("suppress_ok.cc");
    EXPECT_TRUE(r.findings.empty())
        << "[" << r.findings[0].rule << "] " << r.findings[0].detail;
    EXPECT_GE(r.suppressionsHonored, 3);
}

TEST(Pass1Suppressions, MissingJustificationIsItselfAViolation)
{
    const iflint::Pass1Result r = lintFixture("suppress_missing_just.cc");
    const auto rules = rulesOf(r);
    EXPECT_NE(std::find(rules.begin(), rules.end(), "bad-suppression"),
              rules.end());
}

TEST(Pass1Suppressions, UnknownRuleNameIsItselfAViolation)
{
    const iflint::Pass1Result r = lintFixture("suppress_unknown_rule.cc");
    const auto rules = rulesOf(r);
    EXPECT_NE(std::find(rules.begin(), rules.end(), "bad-suppression"),
              rules.end());
}

TEST(Pass1Suppressions, SuppressionThatSuppressesNothingIsAViolation)
{
    const iflint::Pass1Result r = lintFixture("suppress_unused.cc");
    const auto rules = rulesOf(r);
    EXPECT_NE(std::find(rules.begin(), rules.end(), "bad-suppression"),
              rules.end());
}

TEST(Pass1Suppressions, UnmatchedBeginAllowIsAViolation)
{
    const iflint::Pass1Result r = lintFixture("suppress_unmatched.cc");
    const auto rules = rulesOf(r);
    EXPECT_NE(std::find(rules.begin(), rules.end(), "bad-suppression"),
              rules.end());
}

TEST(Pass1, HotDirScopingOnlyAppliesStdFunctionRuleUnderHotPaths)
{
    // The same std::function member is clean outside the hot dirs...
    const std::set<std::string> none;
    const std::string src = "#include <functional>\n"
                            "struct H { std::function<void()> cb; };\n";
    EXPECT_TRUE(iflint::analyzeFile("tools/util.hh", src, none, none)
                    .findings.empty());
    // ...and a finding inside them.
    const auto hot = iflint::analyzeFile("src/coh/agent.hh", src, none,
                                         none);
    ASSERT_EQ(hot.findings.size(), 1u);
    EXPECT_EQ(hot.findings[0].rule, "std-function");
}

TEST(Pass1, NdebugLayoutReportsEachBranchAndHonorsSuppression)
{
    const std::set<std::string> none;
    const auto r = iflint::analyzeFile(
        "x.hh",
        "struct S {\n#ifdef NDEBUG\n  int a;\n#else\n  long b;\n"
        "  int c;  // iflint:allow(ndebug-layout) fixture\n#endif\n};\n",
        none, none);
    ASSERT_EQ(r.findings.size(), 2u);
    EXPECT_EQ(r.findings[0].line, 3);
    EXPECT_EQ(r.findings[1].line, 5);
    EXPECT_EQ(r.suppressionsHonored, 1);
}

// --------------------------------------------------------- allow file

TEST(AllowFile, ParsesPatternsSkipsCommentsFlagsMissingJustification)
{
    std::vector<std::string> errors;
    const auto entries = iflint::loadAllowFile(
        "# header comment\n"
        "\n"
        "_M_realloc_insert | vector growth, bounded by warmup\n"
        "bare_pattern_without_bar\n",
        errors);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].pattern, "_M_realloc_insert");
    EXPECT_EQ(entries[0].justification, "vector growth, bounded by warmup");
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("justification"), std::string::npos);
}

// ------------------------------------------------------ graph analysis

TEST(KillSymbols, AllocatorsThrowMachineryYesOrdinaryCodeNo)
{
    EXPECT_TRUE(iflint::isKillSymbol("_Znwm"));
    EXPECT_TRUE(iflint::isKillSymbol("_ZnamRKSt9nothrow_t"));
    EXPECT_TRUE(iflint::isKillSymbol("malloc"));
    EXPECT_TRUE(iflint::isKillSymbol("posix_memalign"));
    EXPECT_TRUE(iflint::isKillSymbol("__cxa_throw"));
    EXPECT_TRUE(iflint::isKillSymbol(
        "_ZSt20__throw_length_errorPKc"));
    EXPECT_FALSE(iflint::isKillSymbol("_ZN3sim4tickEv"));
    EXPECT_FALSE(iflint::isKillSymbol("memcpy"));
    EXPECT_FALSE(iflint::isKillSymbol("free"));
}

TEST(Demangle, RoundTripsAndPassesThroughNonMangledNames)
{
    EXPECT_EQ(iflint::demangle("_ZN3sim4tickEv"), "sim::tick()");
    EXPECT_EQ(iflint::demangle("malloc"), "malloc");
}

TEST(Symtab, RecoversHotRootsAndColdCutsFromMarkerSymbols)
{
    iflint::CallGraph g;
    iflint::parseSymtab(
        "0000000000000000 l     O .bss\t0000000000000001 "
        "_ZZN3sim4tickEvE11if_hot_root\n"
        "0000000000000000 l     O .bss\t0000000000000001 "
        "_ZZN3sim4growEvE11if_cold_cut\n"
        "0000000000000000 l     O .bss\t0000000000000001 "
        "_ZZN3sim5tick2EvE11if_hot_root_0\n"
        "0000000000000000 g     F .text\t0000000000000010 "
        "_ZN3sim4tickEv\n",
        g);
    EXPECT_TRUE(g.hotRoots.count("_ZN3sim4tickEv"));
    EXPECT_TRUE(g.hotRoots.count("_ZN3sim5tick2Ev"));
    EXPECT_TRUE(g.coldCuts.count("_ZN3sim4growEv"));
    EXPECT_EQ(g.hotRoots.size(), 2u);
}

TEST(Disasm, RelocationLinesOverrideGuessedCallTargets)
{
    iflint::CallGraph g;
    iflint::parseDisasm(
        "0000000000000000 <_ZN3sim4tickEv>:\n"
        "   0:\te8 00 00 00 00       \tcall   5 <_ZN3sim4tickEv+0x5>\n"
        "\t\t\t1: R_X86_64_PLT32\t_Znwm-0x4\n"
        "   5:\tff d0                \tcall   *%rax\n"
        "   7:\te9 00 00 00 00       \tjmp    c <_ZN3sim4tickEv+0xc>\n"
        "\t\t\t8: R_X86_64_PLT32\t_ZN3sim4nextEv-0x4\n"
        "   c:\tc3                   \tret\n",
        g);
    ASSERT_TRUE(g.defined.count("_ZN3sim4tickEv"));
    const auto& calls = g.calls.at("_ZN3sim4tickEv");
    ASSERT_EQ(calls.size(), 2u);
    EXPECT_EQ(calls[0], "_Znwm");          // reloc overrode the self-guess
    EXPECT_EQ(calls[1], "_ZN3sim4nextEv"); // tail jump counts as an edge
    EXPECT_EQ(g.indirect.at("_ZN3sim4tickEv"), 1);
}

TEST(Disasm, ColdOutlinedFragmentsAttributeToTheirParentFunction)
{
    // GCC outlines [[unlikely]] branches as `foo.cold` in
    // .text.unlikely; calls made there must count as calls of foo.
    iflint::CallGraph g;
    iflint::parseDisasm(
        "0000000000000000 <_ZN3sim4tickEv>:\n"
        "   0:\t0f 84 00 00 00 00    \tje     6 <_ZN3sim4tickEv+0x6>\n"
        "\t\t\t2: R_X86_64_PC32\t.text.unlikely+0xf8\n"
        "   6:\tc3                   \tret\n"
        "\n"
        "00000000000000f8 <_ZN3sim4tickEv.cold>:\n"
        "  f8:\te8 00 00 00 00       \tcall   fd <_ZN3sim4tickEv.cold"
        "+0x5>\n"
        "\t\t\tf9: R_X86_64_PLT32\t_Znwm-0x4\n",
        g);
    ASSERT_TRUE(g.calls.count("_ZN3sim4tickEv"));
    const auto& calls = g.calls.at("_ZN3sim4tickEv");
    EXPECT_NE(std::find(calls.begin(), calls.end(), "_Znwm"),
              calls.end())
        << "allocation inside the .cold fragment was not attributed "
           "to the parent";
    EXPECT_FALSE(g.calls.count("_ZN3sim4tickEv.cold"));
}

iflint::CallGraph
syntheticGraph()
{
    iflint::CallGraph g;
    g.defined = {"root", "helper"};
    g.calls["root"] = {"helper"};
    g.calls["helper"] = {"_Znwm"};
    g.hotRoots = {"root"};
    return g;
}

TEST(GraphAnalysis, ReportsFullPathFromRootToAllocator)
{
    iflint::CallGraph g = syntheticGraph();
    std::vector<iflint::AllowEntry> allow;
    const iflint::Pass2Result r = iflint::analyzeGraph(g, allow);
    ASSERT_EQ(r.violations.size(), 1u);
    EXPECT_EQ(r.violations[0].root, "root");
    EXPECT_EQ(r.violations[0].badSym, "_Znwm");
    const std::vector<std::string> want = {"root", "helper", "_Znwm"};
    EXPECT_EQ(r.violations[0].path, want);
    EXPECT_EQ(r.rootsFound, 1);
}

TEST(GraphAnalysis, ColdCutSeversTraversalAndIsReported)
{
    iflint::CallGraph g = syntheticGraph();
    g.coldCuts = {"helper"};
    std::vector<iflint::AllowEntry> allow;
    const iflint::Pass2Result r = iflint::analyzeGraph(g, allow);
    EXPECT_TRUE(r.violations.empty());
    ASSERT_EQ(r.coldCutsHit.size(), 1u);
    EXPECT_EQ(r.coldCutsHit[0], "helper");
}

TEST(GraphAnalysis, AllowPatternSeversTraversalAndCountsHits)
{
    iflint::CallGraph g = syntheticGraph();
    std::vector<iflint::AllowEntry> allow = {
        {"helper", "bounded by construction", 0}};
    const iflint::Pass2Result r = iflint::analyzeGraph(g, allow);
    EXPECT_TRUE(r.violations.empty());
    EXPECT_EQ(allow[0].hits, 1);
}

TEST(GraphAnalysis, TerminalSinksAreNotViolations)
{
    iflint::CallGraph g;
    g.defined = {"root"};
    g.calls["root"] = {"abort", "__assert_fail",
                       "_ZN11invisifence9panicImplEv"};
    g.hotRoots = {"root"};
    std::vector<iflint::AllowEntry> allow;
    const iflint::Pass2Result r = iflint::analyzeGraph(g, allow);
    EXPECT_TRUE(r.violations.empty());
    EXPECT_EQ(r.rootsFound, 1);
}

TEST(GraphAnalysis, MarkerWithoutBodyIsFlaggedAsMissingRoot)
{
    iflint::CallGraph g;
    g.hotRoots = {"ghost"};
    std::vector<iflint::AllowEntry> allow;
    const iflint::Pass2Result r = iflint::analyzeGraph(g, allow);
    EXPECT_EQ(r.rootsFound, 0);
    ASSERT_EQ(r.missingRoots.size(), 1u);
    EXPECT_EQ(r.missingRoots[0], "ghost");
}

// ------------------------------------------------- pass 2 integration

/** Objects for these live under the build tree; the ctest registration
 *  points the env vars at the fixture OBJECT-library output dirs. */
iflint::Pass2Result
lintObjects(const char* var)
{
    const std::string dir = envPath(var);
    EXPECT_FALSE(dir.empty()) << var << " not set";
    return iflint::runPass2({dir}, "");
}

TEST(Pass2Integration, PlantedAllocationUnderHotRootIsCaught)
{
    const iflint::Pass2Result r = lintObjects("IFLINT_PASS2_BAD_DIR");
    ASSERT_TRUE(r.errors.empty()) << r.errors[0];
    EXPECT_GE(r.rootsFound, 1);
    ASSERT_FALSE(r.violations.empty())
        << "planted `new` under IF_HOT was not detected";
    const iflint::Violation& v = r.violations[0];
    EXPECT_NE(iflint::demangle(v.root).find("hotEntryBad"),
              std::string::npos);
    EXPECT_TRUE(iflint::isKillSymbol(v.badSym)) << v.badSym;
}

TEST(Pass2Integration, AllocationFreeHotRootProvesClean)
{
    const iflint::Pass2Result r = lintObjects("IFLINT_PASS2_GOOD_DIR");
    ASSERT_TRUE(r.errors.empty()) << r.errors[0];
    EXPECT_EQ(r.rootsFound, 1);
    EXPECT_TRUE(r.violations.empty())
        << r.violations[0].root << " -> " << r.violations[0].badSym;
}

TEST(Pass2Integration, ColdAllocFrontierPassesAndReportsTheCut)
{
    const iflint::Pass2Result r = lintObjects("IFLINT_PASS2_CUT_DIR");
    ASSERT_TRUE(r.errors.empty()) << r.errors[0];
    EXPECT_EQ(r.rootsFound, 1);
    EXPECT_TRUE(r.violations.empty())
        << r.violations[0].root << " -> " << r.violations[0].badSym;
    ASSERT_EQ(r.coldCutsHit.size(), 1u);
    EXPECT_NE(iflint::demangle(r.coldCutsHit[0]).find("growPoolOnce"),
              std::string::npos);
}

} // namespace
