/**
 * @file
 * Unit tests for the leaselint two-pass analysis engine
 * (tools/leaselint).
 *
 * Covers: the SourceFile primitives (code view, suppression map, CRLF
 * normalization), the per-file index extractor, the call-graph linker
 * and its resolution policy, every rule (positive / negative /
 * suppression), on-disk runs (an edit shows in the next run),
 * SARIF export with fix-it hints, and the whole-repo gates (the shipped
 * tree must lint clean under every rule, with justified suppressions
 * only).
 *
 * Multi-file rule corpora live in tests/tools/fixtures/ and are loaded
 * with src/-style display paths so directory-scoped rules see them.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "leaselint/callgraph.h"
#include "leaselint/driver.h"
#include "leaselint/index.h"
#include "leaselint/rules.h"
#include "leaselint/sarif.h"
#include "leaselint/source.h"

namespace leaselint {
namespace {

namespace fs = std::filesystem;

LintReport
lintOne(const std::string &path, const std::string &text,
        const std::string &rule)
{
    std::vector<SourceFile> files;
    files.push_back(SourceFile::fromString(path, text));
    return runLint(files, {rule});
}

/** Load tests/tools/fixtures/@p rel with display path @p displayPath. */
SourceFile
fixture(const std::string &rel, const std::string &displayPath)
{
    auto file = SourceFile::load(
        std::string(LEASELINT_TEST_FIXTURE_DIR) + "/" + rel, displayPath);
    EXPECT_TRUE(file.has_value()) << rel;
    return *file;
}

/** Global FuncId of the function whose qualified name is @p name. */
FuncId
findFunc(const CallGraph &graph, const std::string &name)
{
    for (FuncId id = 0; id < graph.funcCount(); ++id)
        if (graph.def(id).name == name) return id;
    return kInvalidFunc;
}

/** A scratch directory that cleans up after itself. */
struct TempTree {
    fs::path root;
    TempTree()
    {
        root = fs::temp_directory_path() /
               ("leaselint_test_" +
                std::to_string(
                    reinterpret_cast<std::uintptr_t>(this) ^
                    static_cast<std::uintptr_t>(::getpid())));
        fs::create_directories(root);
    }
    ~TempTree()
    {
        std::error_code ec;
        fs::remove_all(root, ec);
    }
    void
    write(const std::string &rel, const std::string &text) const
    {
        fs::path p = root / rel;
        fs::create_directories(p.parent_path());
        std::ofstream out(p, std::ios::binary);
        out << text;
    }
};

// ---- SourceFile primitives ----------------------------------------------

TEST(SourceFile, BlanksCommentsAndStrings)
{
    SourceFile f = SourceFile::fromString("src/a.cc",
                                          "int x; // rand() here\n"
                                          "const char *s = \"rand()\";\n"
                                          "/* rand()\n   rand() */\n"
                                          "int y = rand();\n");
    // Only the real call on line 5 survives blanking.
    std::size_t pos = findToken(f.codeText(), "rand", 0);
    ASSERT_NE(pos, std::string::npos);
    EXPECT_EQ(f.lineOfOffset(pos), 5u);
}

TEST(SourceFile, TokenMatchingRespectsIdentifierBoundaries)
{
    // "srand" and "randomize" must not match the token "rand".
    EXPECT_EQ(findToken("srand(1); randomize();", "rand", 0),
              std::string::npos);
    EXPECT_NE(findToken("x = rand();", "rand", 0), std::string::npos);
}

TEST(SourceFile, AllowAppliesToItsLineAndTheNext)
{
    SourceFile f = SourceFile::fromString(
        "src/a.cc",
        "// leaselint: allow(determinism) -- reason\n"
        "int a;\n"
        "int b;\n");
    EXPECT_TRUE(f.allowed("determinism", 1));
    EXPECT_TRUE(f.allowed("determinism", 2));
    EXPECT_FALSE(f.allowed("determinism", 3));
    EXPECT_FALSE(f.allowed("cross-unit-pairing", 2));
}

TEST(SourceFile, CrlfLineEndingsAreNormalized)
{
    // An allow() at end of a CRLF line must work exactly like the LF
    // form, and raw lines must not leak the '\r'.
    SourceFile f = SourceFile::fromString(
        "src/sim/a.h",
        "std::unordered_set<int> s_; // leaselint: allow(determinism) -- "
        "membership only\r\n"
        "int x;\r\n");
    EXPECT_TRUE(f.allowed("determinism", 1));
    EXPECT_TRUE(f.rawLine(1).empty() || f.rawLine(1).back() != '\r');
    EXPECT_EQ(f.rawLine(2), "int x;");

    LintReport report;
    {
        std::vector<SourceFile> files{f};
        report = runLint(files, {"determinism"});
    }
    EXPECT_TRUE(report.findings.empty());
    EXPECT_EQ(report.suppressed, 1u);
}

TEST(SourceFile, CrlfAllowWithTrailingWhitespace)
{
    SourceFile f = SourceFile::fromString(
        "src/sim/a.h",
        "// leaselint: allow(determinism) -- reason  \t\r\n"
        "int r = rand();\r\n");
    EXPECT_TRUE(f.allowed("determinism", 2));
}

TEST(SourceFile, MalformedAllowIsRecorded)
{
    SourceFile f = SourceFile::fromString(
        "src/a.cc",
        "// leaselint: allow(determinism  <- missing paren\n"
        "int a;\n"
        "// leaselint: allow() -- empty\n");
    ASSERT_EQ(f.malformedAllowLines().size(), 2u);
    EXPECT_EQ(f.malformedAllowLines()[0], 1u);
    EXPECT_EQ(f.malformedAllowLines()[1], 3u);
    EXPECT_FALSE(f.allowed("determinism", 2));
}

// ---- index extractor ----------------------------------------------------

TEST(Index, ExtractsQualifiedFunctionsAndCalls)
{
    SourceFile f = SourceFile::fromString(
        "src/x.cc",
        "namespace app {\n"
        "\n"
        "void\n"
        "Torch::start()\n"
        "{\n"
        "    lock_.acquire();\n"
        "    helper(1 + 2);\n"
        "}\n"
        "\n"
        "Torch::~Torch() { stopAll(); }\n"
        "\n"
        "} // namespace app\n");
    FileIndex index = buildIndex(f);
    ASSERT_EQ(index.funcs.size(), 2u);
    EXPECT_EQ(index.funcs[0].name, "app::Torch::start");
    EXPECT_EQ(index.funcs[0].startLine, 4u);
    EXPECT_EQ(index.funcs[0].endLine, 8u);
    EXPECT_EQ(index.funcs[1].name, "app::Torch::~Torch");

    ASSERT_EQ(index.resources.size(), 1u);
    EXPECT_FALSE(index.resources[0].release);
    EXPECT_EQ(index.resources[0].line, 6u);
    EXPECT_EQ(index.resources[0].func, 0u);

    bool sawHelper = false, sawStopAll = false;
    for (const CallSite &call : index.calls) {
        if (call.callee == "helper" && call.func == 0) sawHelper = true;
        if (call.callee == "stopAll" && call.func == 1) sawStopAll = true;
    }
    EXPECT_TRUE(sawHelper);
    EXPECT_TRUE(sawStopAll);
}

TEST(Index, AttributesConstructorInitializerListCalls)
{
    SourceFile f = SourceFile::fromString(
        "src/power/radio.cc",
        "RadioModel::RadioModel(EnergyAccountant &acct)\n"
        "    : channel_(acct.makeChannel(\"radio\")), idle_(0.0)\n"
        "{\n"
        "}\n");
    FileIndex index = buildIndex(f);
    ASSERT_EQ(index.funcs.size(), 1u);
    EXPECT_EQ(index.funcs[0].name, "RadioModel::RadioModel");
    bool sawMakeChannel = false;
    for (const CallSite &call : index.calls)
        if (call.callee == "makeChannel" && call.func == 0)
            sawMakeChannel = true;
    EXPECT_TRUE(sawMakeChannel);
}

TEST(Index, MethodCallsAndRegistrationSites)
{
    SourceFile f = SourceFile::fromString(
        "src/obs/x.cc",
        "void Foo::initMetrics() { metrics_->counter(\"a.b\"); }\n"
        "void Foo::tick() { value_.store(1); }\n");
    FileIndex index = buildIndex(f);
    ASSERT_EQ(index.regs.size(), 1u);
    EXPECT_EQ(index.regs[0].methodName, "counter");
    EXPECT_EQ(index.regs[0].func, 0u);
}

TEST(Index, PreprocessorLinesDoNotProduceStructure)
{
    SourceFile f = SourceFile::fromString(
        "src/x.h",
        "#include <map>\n"
        "#define HELPER(x) do { acquire(x); } while (0)\n"
        "#define TWO_LINE(x) \\\n"
        "    acquire(x)\n"
        "void f() { int y = 1; }\n");
    FileIndex index = buildIndex(f);
    EXPECT_TRUE(index.resources.empty()); // macro bodies are not calls
    ASSERT_EQ(index.funcs.size(), 1u);
    EXPECT_EQ(index.funcs[0].name, "f");
}

TEST(Index, CollectsEnumsSwitchesFindingsAndAllows)
{
    SourceFile f = SourceFile::fromString(
        "src/sim/bad.cc",
        "enum class LeaseState { Active, Dead };\n"
        "// leaselint: allow(determinism) -- seeded elsewhere\n"
        "int r = rand();\n"
        "void f(LeaseState s) {\n"
        "    switch (s) {\n"
        "      case LeaseState::Active: break;\n"
        "    }\n"
        "    lock_.release();\n"
        "}\n");
    FileIndex index = buildIndex(f);
    EXPECT_FALSE(index.enums.empty());
    EXPECT_FALSE(index.switches.empty());
    EXPECT_FALSE(index.resources.empty());
    EXPECT_FALSE(index.findings.empty());
    EXPECT_TRUE(index.allowed("determinism", 3));
}

// ---- call graph ---------------------------------------------------------

TEST(CallGraph, ResolvesSameFileFirst)
{
    RepoIndex repo;
    repo.files.push_back(buildIndex(SourceFile::fromString(
        "src/a.cc", "void helper() {}\nvoid caller() { helper(); }\n")));
    repo.files.push_back(buildIndex(
        SourceFile::fromString("src/b.cc", "void helper() {}\n")));
    CallGraph graph(repo);
    FuncId caller = findFunc(graph, "caller");
    ASSERT_NE(caller, kInvalidFunc);
    ASSERT_EQ(graph.callees(caller).size(), 1u);
    EXPECT_EQ(graph.fileOf(graph.callees(caller)[0]), 0u);
}

TEST(CallGraph, ResolvesWithinUnitThenUniqueGlobal)
{
    RepoIndex repo;
    repo.files.push_back(buildIndex(SourceFile::fromString(
        "src/x.h", "void closeAll() {}\n")));
    repo.files.push_back(buildIndex(SourceFile::fromString(
        "src/x.cc", "void open() { closeAll(); }\n")));
    repo.files.push_back(buildIndex(SourceFile::fromString(
        "src/y.cc", "void closeAll() {}\nvoid other() { unique(); }\n")));
    repo.files.push_back(buildIndex(
        SourceFile::fromString("src/z.cc", "void unique() {}\n")));
    CallGraph graph(repo);

    // x.cc's closeAll() call: two candidates, the .h/.cc unit wins.
    FuncId open = findFunc(graph, "open");
    ASSERT_EQ(graph.callees(open).size(), 1u);
    EXPECT_EQ(graph.unitOf(graph.callees(open)[0]), "src/x");

    // unique() has one candidate repo-wide: resolved.
    FuncId other = findFunc(graph, "other");
    ASSERT_EQ(graph.callees(other).size(), 1u);
    EXPECT_EQ(graph.def(graph.callees(other)[0]).name, "unique");
}

TEST(CallGraph, AmbiguousNamesStayUnresolved)
{
    RepoIndex repo;
    repo.files.push_back(buildIndex(SourceFile::fromString(
        "src/apps/a.cc", "void start() {}\n")));
    repo.files.push_back(buildIndex(SourceFile::fromString(
        "src/apps/b.cc", "void start() {}\n")));
    repo.files.push_back(buildIndex(SourceFile::fromString(
        "src/apps/c.cc", "void go() { start(); }\n")));
    CallGraph graph(repo);
    FuncId go = findFunc(graph, "go");
    EXPECT_TRUE(graph.callees(go).empty());
}

TEST(CallGraph, ReachabilityIsDepthBounded)
{
    RepoIndex repo;
    repo.files.push_back(buildIndex(SourceFile::fromString(
        "src/chain.cc",
        "void d() {}\n"
        "void c() { d(); }\n"
        "void b() { c(); }\n"
        "void a() { b(); }\n")));
    CallGraph graph(repo);
    FuncId a = findFunc(graph, "a");
    EXPECT_EQ(graph.reachableFrom({a}, 1).size(), 2u); // a, b
    EXPECT_EQ(graph.reachableFrom({a}, 8).size(), 4u);
}

TEST(CallGraph, StructorNamesAndUnitStems)
{
    EXPECT_TRUE(CallGraph::isStructorName("Foo::Foo"));
    EXPECT_TRUE(CallGraph::isStructorName("ns::Foo::~Foo"));
    EXPECT_FALSE(CallGraph::isStructorName("Foo::bar"));
    EXPECT_FALSE(CallGraph::isStructorName("freeFunction"));
    EXPECT_EQ(unitStem("src/apps/buggy/torch.h"), "src/apps/buggy/torch");
    EXPECT_EQ(unitStem("src/apps/buggy/torch.cc"), "src/apps/buggy/torch");
}

// ---- determinism rule ---------------------------------------------------

TEST(DeterminismRule, FlagsWallClockAndRand)
{
    LintReport report = lintOne("src/sim/bad.cc",
                                "#include <chrono>\n"
                                "auto t = std::chrono::system_clock::now();\n"
                                "int r = rand();\n",
                                "determinism");
    ASSERT_EQ(report.findings.size(), 2u);
    EXPECT_EQ(report.findings[0].line, 2u);
    EXPECT_EQ(report.findings[1].line, 3u);
    EXPECT_EQ(report.findings[0].rule, "determinism");
}

TEST(DeterminismRule, FlagsUnorderedContainers)
{
    LintReport report = lintOne(
        "src/os/bad.h", "std::unordered_map<int, int> m;\n", "determinism");
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_NE(report.findings[0].message.find("iteration order"),
              std::string::npos);
}

TEST(DeterminismRule, IgnoresIncludesCommentsAndOtherDirs)
{
    LintReport clean = lintOne("src/sim/ok.cc",
                               "#include <unordered_set>\n"
                               "// rand() is banned\n"
                               "int seeded = seededRandom();\n",
                               "determinism");
    EXPECT_TRUE(clean.findings.empty());

    // Scope: tools/ and tests/ may use wall clocks (e.g. timing a build).
    LintReport outside =
        lintOne("tools/x.cc", "int r = rand();\n", "determinism");
    EXPECT_TRUE(outside.findings.empty());
}

TEST(DeterminismRule, SuppressionSilencesButCounts)
{
    LintReport report = lintOne(
        "src/sim/ok.h",
        "// leaselint: allow(determinism) -- membership only\n"
        "std::unordered_set<int> live_;\n",
        "determinism");
    EXPECT_TRUE(report.findings.empty());
    EXPECT_EQ(report.suppressed, 1u);
}

TEST(DeterminismRule, FlagsUnorderedIterationOnSnapshotPath)
{
    // The state-digest hazard (DESIGN.md §11): a digestState() that walks
    // a std::unordered_map hashes in bucket order, breaking "equal state
    // => equal digest" across hosts.
    std::vector<SourceFile> files;
    files.push_back(fixture("snapshot/unordered_save.cc",
                            "src/power/fix/unordered_save.cc"));
    LintReport report = runLint(files, {"determinism"});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].rule, "determinism");
    EXPECT_NE(report.findings[0].message.find("iteration order"),
              std::string::npos);
}

TEST(DeterminismRule, OrderedSnapshotSerializationIsClean)
{
    std::vector<SourceFile> files;
    files.push_back(fixture("snapshot/ordered_save.cc",
                            "src/power/fix/ordered_save.cc"));
    LintReport report = runLint(files, {"determinism"});
    for (const Finding &f : report.findings)
        ADD_FAILURE() << formatFinding(f);
}

// ---- cross-unit-pairing rule --------------------------------------------

TEST(CrossUnitPairing, FlagsAcquireWithoutRelease)
{
    LintReport report = lintOne("src/apps/buggy/leak.h",
                                "void start() {\n"
                                "    ctx_.powerManager().acquire(lock_);\n"
                                "}\n",
                                "cross-unit-pairing");
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].rule, "cross-unit-pairing");
    EXPECT_EQ(report.findings[0].line, 2u);
}

TEST(CrossUnitPairing, AcceptsBalancedPairsAcrossHeaderAndImpl)
{
    // acquire in the .h, release in the .cc of the same unit: balanced.
    std::vector<SourceFile> files;
    files.push_back(SourceFile::fromString(
        "src/apps/a.h", "void s() { pm().acquire(lock_); }\n"));
    files.push_back(SourceFile::fromString(
        "src/apps/a.cc", "void t() { pm().release(lock_); }\n"));
    LintReport report = runLint(files, {"cross-unit-pairing"});
    EXPECT_TRUE(report.findings.empty());
}

TEST(CrossUnitPairing, ChecksSubscriptionStylePairsToo)
{
    LintReport report =
        lintOne("src/apps/gps.h",
                "void s() { lm().requestLocationUpdates(uid, i, this); }\n",
                "cross-unit-pairing");
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_NE(report.findings[0].message.find("removeUpdates"),
              std::string::npos);
}

TEST(CrossUnitPairing, OnlyAppliesToAppsAndExamples)
{
    LintReport report = lintOne(
        "src/os/impl.cc", "void s() { acquire(t); }\n",
        "cross-unit-pairing");
    EXPECT_TRUE(report.findings.empty());
}

TEST(CrossUnitPairing, ModelledDefectSuppressionWorks)
{
    LintReport report = lintOne(
        "src/apps/buggy/leak.h",
        "void start() {\n"
        "    // leaselint: allow(cross-unit-pairing) -- modelled defect\n"
        "    ctx_.powerManager().acquire(lock_);\n"
        "}\n",
        "cross-unit-pairing");
    EXPECT_TRUE(report.findings.empty());
    EXPECT_EQ(report.suppressed, 1u);
}

TEST(CrossUnitPairing, ReleaseViaHelperAcrossUnitsIsClean)
{
    // The whole point of the call-graph upgrade: the release lives in a
    // helper in ANOTHER translation unit; the file-local rule called
    // this a leak.
    std::vector<SourceFile> files;
    files.push_back(
        fixture("pairing/clean_app.cc", "src/apps/fix/clean_app.cc"));
    files.push_back(
        fixture("pairing/clean_helper.cc", "src/apps/fix/clean_helper.cc"));
    LintReport report = runLint(files, {"cross-unit-pairing"});
    for (const Finding &f : report.findings)
        ADD_FAILURE() << formatFinding(f);
}

TEST(CrossUnitPairing, LeakThroughForgetfulHelperIsFlagged)
{
    std::vector<SourceFile> files;
    files.push_back(
        fixture("pairing/leak_app.cc", "src/apps/fix/leak_app.cc"));
    LintReport report = runLint(files, {"cross-unit-pairing"});
    ASSERT_EQ(report.findings.size(), 1u);
    const Finding &f = report.findings[0];
    EXPECT_EQ(f.path, "src/apps/fix/leak_app.cc");
    EXPECT_NE(f.message.find("never release()"), std::string::npos);
    // The finding carries a machine-applicable fix-it: insert a
    // suppression above the acquire site, matching its indentation.
    ASSERT_TRUE(f.fix.has_value());
    EXPECT_EQ(f.fix->line, f.line);
    EXPECT_NE(f.fix->insertText.find(
                  "// leaselint: allow(cross-unit-pairing)"),
              std::string::npos);
    EXPECT_EQ(f.fix->insertText.rfind("    //", 0), 0u); // indented
}

TEST(CrossUnitPairing, DoubleReleaseIsFlagged)
{
    std::vector<SourceFile> files;
    files.push_back(fixture("pairing/double_release_app.cc",
                            "src/apps/fix/double_release_app.cc"));
    LintReport report = runLint(files, {"cross-unit-pairing"});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_NE(report.findings[0].message.find("double release"),
              std::string::npos);
}

TEST(CrossUnitPairing, SharedReleaseHelperIsExempt)
{
    // clean_helper releases without acquiring, but its releasing
    // function is called from another unit — the caller owns the
    // balance, so no finding may land in the helper.
    std::vector<SourceFile> files;
    files.push_back(
        fixture("pairing/clean_app.cc", "src/apps/fix/clean_app.cc"));
    files.push_back(
        fixture("pairing/clean_helper.cc", "src/apps/fix/clean_helper.cc"));
    LintReport report = runLint(files, {"cross-unit-pairing"});
    for (const Finding &f : report.findings)
        EXPECT_NE(f.path, "src/apps/fix/clean_helper.cc")
            << formatFinding(f);
}

// ---- ptr-ordered-iteration rule -----------------------------------------

TEST(PtrOrderedIteration, FlagsPointerKeyedOrderedContainers)
{
    std::vector<SourceFile> files;
    files.push_back(
        fixture("ptr_map/positive.cc", "src/lease/fix/positive.cc"));
    LintReport report = runLint(files, {"ptr-ordered-iteration"});
    ASSERT_EQ(report.findings.size(), 2u);
    EXPECT_EQ(report.findings[0].rule, "ptr-ordered-iteration");
    EXPECT_NE(report.findings[0].message.find("ASLR"), std::string::npos);
}

TEST(PtrOrderedIteration, PointerValuesAndPlainKeysAreClean)
{
    std::vector<SourceFile> files;
    files.push_back(
        fixture("ptr_map/negative.cc", "src/lease/fix/negative.cc"));
    LintReport report = runLint(files, {"ptr-ordered-iteration"});
    for (const Finding &f : report.findings)
        ADD_FAILURE() << formatFinding(f);
}

TEST(PtrOrderedIteration, OnlyAuditsSrc)
{
    LintReport report =
        lintOne("tools/x.cc", "std::map<Node *, int> byAddr;\n",
                "ptr-ordered-iteration");
    EXPECT_TRUE(report.findings.empty());
}

TEST(PtrOrderedIteration, SuppressionSilencesButCounts)
{
    LintReport report = lintOne(
        "src/lease/ok.cc",
        "// leaselint: allow(ptr-ordered-iteration) -- lookup only\n"
        "std::map<Lease *, int> holds_;\n",
        "ptr-ordered-iteration");
    EXPECT_TRUE(report.findings.empty());
    EXPECT_EQ(report.suppressed, 1u);
}

TEST(PtrOrderedIteration, MultiLineDeclarationsAreCaught)
{
    LintReport report = lintOne("src/lease/multi.cc",
                                "std::map<\n"
                                "    Lease *,\n"
                                "    HoldInfo> holds_;\n",
                                "ptr-ordered-iteration");
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].line, 1u);
}

// ---- macro-side-effect rule ---------------------------------------------

TEST(MacroSideEffect, FlagsIncrementAndAssignment)
{
    std::vector<SourceFile> files;
    files.push_back(
        fixture("macro/side_effect.cc", "src/obs/fix/side_effect.cc"));
    LintReport report = runLint(files, {"macro-side-effect"});
    ASSERT_EQ(report.findings.size(), 2u);
    EXPECT_EQ(report.findings[0].rule, "macro-side-effect");
    EXPECT_NE(report.findings[0].message.find("compiles out"),
              std::string::npos);
}

TEST(MacroSideEffect, PureReadsComparisonsAndCapturesAreClean)
{
    std::vector<SourceFile> files;
    files.push_back(fixture("macro/clean.cc", "src/obs/fix/clean.cc"));
    LintReport report = runLint(files, {"macro-side-effect"});
    for (const Finding &f : report.findings)
        ADD_FAILURE() << formatFinding(f);
}

TEST(MacroSideEffect, MacroDefinitionLinesAreIgnored)
{
    LintReport report = lintOne(
        "src/obs/trace.h",
        "#define LEASEOS_TRACE(call) \\\n"
        "    do { sink().call; counter++; } while (0)\n"
        "void f() { LEASEOS_TRACE(emit(x++)); }\n",
        "macro-side-effect");
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].line, 3u);
}

TEST(MacroSideEffect, CompoundAssignmentsAreMutations)
{
    LintReport report =
        lintOne("src/a.cc", "void f() { LEASEOS_ORACLE(total += d); }\n",
                "macro-side-effect");
    EXPECT_EQ(report.findings.size(), 1u);
}

// ---- proxy-bypass rule --------------------------------------------------

TEST(ProxyBypassRule, FlagsInterpositionCallsOutsideProxyLayer)
{
    LintReport report =
        lintOne("src/apps/cheat.cc", "pm().suspend(token);\n",
                "proxy-bypass");
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].rule, "proxy-bypass");
}

TEST(ProxyBypassRule, AllowsProxyMitigationAndServiceLayers)
{
    for (const char *path :
         {"src/lease/proxies/lease_proxy.cc", "src/mitigation/doze.cc",
          "src/os/power_manager_service.cc"}) {
        LintReport report =
            lintOne(path, "pm().suspend(token);\n", "proxy-bypass");
        EXPECT_TRUE(report.findings.empty()) << path;
    }
}

// ---- flat-map-hotpath rule ----------------------------------------------

TEST(FlatMapHotpathRule, FlagsNodeMapsInHotPathDirs)
{
    LintReport report = lintOne("src/power/bad.h",
                                "std::map<Uid, double> table_;\n"
                                "std::unordered_map<int, int> index_;\n"
                                "std::set<Uid> players_;\n"
                                "std::unordered_set<Uid> seen_;\n",
                                "flat-map-hotpath");
    ASSERT_EQ(report.findings.size(), 4u);
    EXPECT_EQ(report.findings[0].rule, "flat-map-hotpath");
    EXPECT_EQ(report.findings[0].line, 1u);
    EXPECT_NE(report.findings[0].message.find("dense"), std::string::npos);
    EXPECT_EQ(report.findings[2].line, 3u);
    EXPECT_NE(report.findings[2].message.find("std::set"),
              std::string::npos);
}

TEST(FlatMapHotpathRule, IgnoresColdDirsIncludesAndUnqualifiedNames)
{
    LintReport cold = lintOne("src/harness/ok.cc",
                              "std::map<int, int> agg;\n",
                              "flat-map-hotpath");
    EXPECT_TRUE(cold.findings.empty());

    LintReport clean = lintOne("src/sim/ok.cc",
                               "#include <map>\n"
                               "// the old std::map layout\n"
                               "int bitmap = roadmap(mapIndex);\n"
                               "os << std::setw(2) << std::setfill(0);\n",
                               "flat-map-hotpath");
    EXPECT_TRUE(clean.findings.empty());
}

// ---- switch-exhaustive rule ---------------------------------------------

TEST(SwitchExhaustiveRule, FlagsMissingEnumerator)
{
    std::vector<SourceFile> files;
    files.push_back(SourceFile::fromString(
        "src/lease/lease.h",
        "enum class LeaseState { Active, Inactive, Deferred, Dead };\n"));
    files.push_back(SourceFile::fromString(
        "src/lease/use.cc",
        "void f(LeaseState s) {\n"
        "    switch (s) {\n"
        "      case LeaseState::Active: break;\n"
        "      case LeaseState::Inactive: break;\n"
        "    }\n"
        "}\n"));
    LintReport report = runLint(files, {"switch-exhaustive"});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].rule, "switch-exhaustive");
    EXPECT_NE(report.findings[0].message.find("Deferred"),
              std::string::npos);
    EXPECT_NE(report.findings[0].message.find("Dead"), std::string::npos);
}

TEST(SwitchExhaustiveRule, DefaultDoesNotExcuseMissingCases)
{
    std::vector<SourceFile> files;
    files.push_back(SourceFile::fromString(
        "src/lease/lease.h",
        "enum class LeaseState { Active, Inactive, Deferred, Dead };\n"));
    files.push_back(SourceFile::fromString(
        "src/lease/use.cc",
        "void f(LeaseState s) {\n"
        "    switch (s) {\n"
        "      case LeaseState::Active: break;\n"
        "      default: break;\n"
        "    }\n"
        "}\n"));
    LintReport report = runLint(files, {"switch-exhaustive"});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_NE(report.findings[0].message.find("default"),
              std::string::npos);
}

TEST(SwitchExhaustiveRule, FullCoverageIsClean)
{
    std::vector<SourceFile> files;
    files.push_back(SourceFile::fromString(
        "src/lease/lease.h",
        "enum class LeaseState { Active, Inactive, Deferred, Dead };\n"));
    files.push_back(SourceFile::fromString(
        "src/lease/use.cc",
        "void f(LeaseState s) {\n"
        "    switch (s) {\n"
        "      case LeaseState::Active: break;\n"
        "      case LeaseState::Inactive: break;\n"
        "      case LeaseState::Deferred: break;\n"
        "      case LeaseState::Dead: break;\n"
        "    }\n"
        "}\n"));
    LintReport report = runLint(files, {"switch-exhaustive"});
    EXPECT_TRUE(report.findings.empty());
}

TEST(SwitchExhaustiveRule, IgnoresSwitchesOverOtherEnums)
{
    std::vector<SourceFile> files;
    files.push_back(SourceFile::fromString(
        "src/os/other.cc",
        "void f(Color c) {\n"
        "    switch (c) {\n"
        "      case Color::Red: break;\n"
        "    }\n"
        "}\n"));
    LintReport report = runLint(files, {"switch-exhaustive"});
    EXPECT_TRUE(report.findings.empty());
}

// ---- registry-contract rule ---------------------------------------------

TEST(RegistryContract, FlagsRegistrationInUncalledSrcFunction)
{
    std::vector<SourceFile> files;
    files.push_back(
        fixture("registry/hot_path.cc", "src/obs/fix/hot_path.cc"));
    LintReport report = runLint(files, {"registry-contract"});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].rule, "registry-contract");
    EXPECT_NE(report.findings[0].message.find("poll"), std::string::npos);
}

TEST(RegistryContract, ConstructorReachableHelperIsLegal)
{
    std::vector<SourceFile> files;
    files.push_back(
        fixture("registry/ctor_ok.cc", "src/obs/fix/ctor_ok.cc"));
    LintReport report = runLint(files, {"registry-contract"});
    for (const Finding &f : report.findings)
        ADD_FAILURE() << formatFinding(f);
}

TEST(RegistryContract, InitPrefixedFunctionsAreLegal)
{
    LintReport report = lintOne(
        "src/lease/mgr.cc",
        "void Mgr::initMetrics() { metrics_->counter(\"a\"); }\n",
        "registry-contract");
    EXPECT_TRUE(report.findings.empty());
}

TEST(RegistryContract, OutsideSrcIsExempt)
{
    LintReport report = lintOne(
        "bench/fleet.cc",
        "void addGauge() { registry_->boundGauge(\"g\", f); }\n",
        "registry-contract");
    EXPECT_TRUE(report.findings.empty());
}

TEST(RegistryContract, HotCallerPoisonsTheHelper)
{
    // register() is called from a ctor AND from a hot tick(): the hot
    // path makes it illegal.
    std::vector<SourceFile> files;
    files.push_back(SourceFile::fromString(
        "src/obs/w.cc",
        "Widget::Widget() { addChannel(); }\n"
        "void Widget::tick() { addChannel(); }\n"
        "void Widget::addChannel() { metrics_->gauge(\"g\"); }\n"));
    LintReport report = runLint(files, {"registry-contract"});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_NE(report.findings[0].message.find("addChannel"),
              std::string::npos);
}

// ---- bad-suppression rule -----------------------------------------------

TEST(BadSuppression, UnknownRuleNameIsFlagged)
{
    LintReport report = lintOne(
        "src/sim/a.cc",
        "// leaselint: allow(determinsm) -- typo'd rule name\n"
        "int r = seeded();\n",
        "bad-suppression");
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_NE(report.findings[0].message.find("determinsm"),
              std::string::npos);
}

TEST(BadSuppression, MalformedMarkerIsFlagged)
{
    LintReport report = lintOne(
        "src/sim/a.cc",
        "int x; // leaselint: allow(determinism -- missing paren\n",
        "bad-suppression");
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_NE(report.findings[0].message.find("suppresses nothing"),
              std::string::npos);
}

TEST(BadSuppression, KnownRulesAndOutOfScopeDirsAreClean)
{
    LintReport known = lintOne(
        "src/sim/a.cc",
        "// leaselint: allow(determinism) -- justified\n"
        "std::unordered_set<int> s_;\n",
        "bad-suppression");
    EXPECT_TRUE(known.findings.empty());

    // Docs and tests may mention the syntax in prose.
    LintReport prose = lintOne(
        "tests/tools/doc.cc",
        "// the `// leaselint: allow(some-rule)` comment syntax\n",
        "bad-suppression");
    EXPECT_TRUE(prose.findings.empty());
}

// ---- driver: engine behaviour -------------------------------------------

TEST(Driver, FindingsAreSortedAndFormatted)
{
    std::vector<SourceFile> files;
    files.push_back(
        SourceFile::fromString("src/b.cc", "int r = rand();\n"));
    files.push_back(
        SourceFile::fromString("src/a.cc", "int r = rand();\n"));
    LintReport report = runLint(files, {"determinism"});
    ASSERT_EQ(report.findings.size(), 2u);
    EXPECT_EQ(report.findings[0].path, "src/a.cc");
    EXPECT_EQ(report.findings[1].path, "src/b.cc");
    EXPECT_EQ(report.filesScanned, 2u);
    std::string line = formatFinding(report.findings[0]);
    EXPECT_EQ(line.rfind("src/a.cc:1: [determinism]", 0), 0u);
}

TEST(Driver, OnDiskRunSeesEachEdit)
{
    TempTree tree;
    tree.write("src/sim/a.cc", "int r = rand();\n");
    tree.write("src/sim/b.cc", "int ok = 1;\n");

    LintOptions options;
    options.root = tree.root.string();
    options.paths = {"src"};

    LintReport before = runLint(options);
    EXPECT_EQ(before.filesScanned, 2u);
    ASSERT_EQ(before.findings.size(), 1u);
    EXPECT_EQ(before.findings[0].path, "src/sim/a.cc");

    // Every run reads the tree afresh: the fix shows at once.
    tree.write("src/sim/a.cc", "int r = seeded();\n");
    LintReport after = runLint(options);
    EXPECT_EQ(after.filesScanned, 2u);
    EXPECT_TRUE(after.findings.empty());
}

TEST(Driver, RuleFilterRunsOnlySelectedRules)
{
    std::vector<SourceFile> files;
    files.push_back(SourceFile::fromString(
        "src/sim/a.cc",
        "int r = rand();\n"
        "std::map<Lease *, int> byAddr;\n"));
    LintReport det = runLint(files, {"determinism"});
    EXPECT_EQ(det.findings.size(), 1u);
    LintReport ptr = runLint(files, {"ptr-ordered-iteration"});
    EXPECT_EQ(ptr.findings.size(), 1u);
    LintReport both =
        runLint(files, {"determinism", "ptr-ordered-iteration"});
    EXPECT_EQ(both.findings.size(), 2u);
}

// ---- SARIF export -------------------------------------------------------

TEST(Sarif, ReportCarriesVersionRulesAndResults)
{
    std::vector<SourceFile> files;
    files.push_back(
        SourceFile::fromString("src/sim/bad.cc", "int r = rand();\n"));
    LintReport report = runLint(files, {"determinism"});
    ASSERT_EQ(report.findings.size(), 1u);

    std::string doc = sarifReport(report);
    EXPECT_NE(doc.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(doc.find("\"runs\": ["), std::string::npos);
    EXPECT_NE(doc.find("\"name\": \"leaselint\""), std::string::npos);
    // Every built-in rule is listed in tool.driver.rules.
    for (const auto &rule : allRules())
        EXPECT_NE(doc.find("\"id\": \"" + std::string(rule.name) + "\""),
                  std::string::npos)
            << rule.name;
    EXPECT_NE(doc.find("\"ruleId\": \"determinism\""), std::string::npos);
    EXPECT_NE(doc.find("\"level\": \"error\""), std::string::npos);
    EXPECT_NE(doc.find("\"uri\": \"src/sim/bad.cc\""), std::string::npos);
    EXPECT_NE(doc.find("\"startLine\": 1"), std::string::npos);
}

TEST(Sarif, EmptyReportHasEmptyResults)
{
    LintReport report;
    std::string doc = sarifReport(report);
    EXPECT_NE(doc.find("\"results\": [\n      ]"), std::string::npos);
}

TEST(Sarif, MessagesAreJsonEscaped)
{
    LintReport report;
    Finding f;
    f.rule = "determinism";
    f.path = "src/a.cc";
    f.line = 3;
    f.message = "bad \"quote\"\nand newline";
    report.findings.push_back(f);
    std::string doc = sarifReport(report);
    EXPECT_NE(doc.find("bad \\\"quote\\\"\\nand newline"),
              std::string::npos);
    EXPECT_EQ(doc.find("\nand newline"), std::string::npos);
}

TEST(Sarif, FixItsBecomeSarifFixes)
{
    LintReport report;
    Finding f;
    f.rule = "cross-unit-pairing";
    f.path = "src/apps/fix/leak_app.cc";
    f.line = 10;
    f.message = "leak";
    f.fix = FixIt{"document the intentional hold", 10,
                  "    // leaselint: allow(cross-unit-pairing) -- why\n"};
    report.findings.push_back(f);
    std::string doc = sarifReport(report);
    EXPECT_NE(doc.find("\"fixes\": ["), std::string::npos);
    EXPECT_NE(doc.find("\"insertedContent\""), std::string::npos);
    EXPECT_NE(doc.find("\"deletedRegion\""), std::string::npos);
    EXPECT_NE(doc.find("allow(cross-unit-pairing) -- why\\n"),
              std::string::npos);
}

// ---- whole-repo gates ---------------------------------------------------

TEST(Driver, WholeRepoIsCleanWithJustifiedSuppressions)
{
    // The acceptance gate: the shipped tree must lint clean, with every
    // suppression carrying a justification at the marked site.
    LintOptions options;
    options.root = LEASELINT_TEST_REPO_ROOT;
    LintReport report = runLint(options);
    for (const Finding &f : report.findings)
        ADD_FAILURE() << formatFinding(f);
    EXPECT_GT(report.filesScanned, 100u);
    EXPECT_GT(report.suppressed, 0u);
}

TEST(Rules, RulesDocInSync)
{
    // The committed rule-inventory doc is generated from allRules();
    // this gate keeps it from drifting. Regenerate from the repo root:
    //   build/tools/leaselint/leaselint --rules-doc >tools/leaselint/RULES.md
    std::filesystem::path doc = std::filesystem::path(
        LEASELINT_TEST_REPO_ROOT) / "tools" / "leaselint" / "RULES.md";
    std::ifstream in(doc, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing " << doc;
    std::ostringstream committed;
    committed << in.rdbuf();
    EXPECT_EQ(committed.str(), renderRulesMarkdown())
        << "tools/leaselint/RULES.md is out of sync with allRules(); "
           "regenerate it with `leaselint --rules-doc`";
}

TEST(Driver, WholeRepoIsCleanPerNewRule)
{
    // Each of this PR's rules individually gates clean on the tree.
    for (const char *rule :
         {"cross-unit-pairing", "ptr-ordered-iteration",
          "macro-side-effect", "registry-contract", "bad-suppression"}) {
        LintOptions options;
        options.root = LEASELINT_TEST_REPO_ROOT;
        options.rules = {rule};
        LintReport report = runLint(options);
        for (const Finding &f : report.findings)
            ADD_FAILURE() << rule << ": " << formatFinding(f);
    }
}

} // namespace
} // namespace leaselint
