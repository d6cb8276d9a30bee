// The program-builder contract (builder.h, DESIGN.md §4.7):
//   * a programmatic reconstruction of the fig1a corpus kernel produces
//     loop reports — including provenance — byte-identical to the parsed
//     original, at 1, 4 and 8 threads;
//   * builder output fingerprints identically to its parsed equivalent, so
//     an incremental session treats the two frontends as one cache: a
//     builder-built fig1a warm-resubmitted (or resubmitted as parsed text)
//     recomputes nothing;
//   * replaying every parsed corpus kernel through builder::rebuild()
//     reproduces the direct parser path's reports, provenance and counters,
//     at 1 and 4 threads, with and without the quantified extension;
//   * `>>` edge chains order blocks, overriding creation order;
//   * every misuse — cyclic or malformed edge chains, duplicate block
//     names, undeclared subscript symbols, unclosed regions, rank
//     mismatches, dangling GOTOs, symbol names that are not identifiers —
//     is a structured diagnostic from build(), never an abort, and one
//     build() reports all of them.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "panorama/analysis/driver.h"
#include "panorama/ast/fingerprint.h"
#include "panorama/builder/builder.h"
#include "panorama/corpus/corpus.h"
#include "panorama/frontend/parser.h"
#include "panorama/session/session.h"
#include "panorama/support/memo_cache.h"
#include "panorama/support/thread_pool.h"

namespace panorama {
namespace {

using builder::BuildResult;
using builder::cst;
using builder::elem;
using builder::rcst;
using builder::sym;
using builder::Val;

/// Restores the global cache to its default configuration when a test ends,
/// so test order never matters.
struct CacheGuard {
  ~CacheGuard() { QueryCache::global().configure(QueryCache::kDefaultCapacity); }
};

/// Programmatic reconstruction of the fig1a corpus kernel (corpus.cpp),
/// with at() locations matching the Fortran text so even the line numbers
/// the reports cite agree with the parsed original.
BuildResult buildFig1a() {
  builder::ProgramBuilder b;

  auto& main = b.mainProgram("fig1a");
  main.at(2);
  main.array("res", {64});
  main.integer("nmol1").real("cut2");
  main.common("f1a", {"res"});
  main.at(7).assign("nmol1", 24);
  main.at(8).assign("cut2", 12.0);
  main.at(9).call("interf", {sym("nmol1"), sym("cut2")});

  auto& p = b.procedure("interf");
  p.at(12);
  p.param("nmol1").param("cut2");
  p.integer("nmol1").real("cut2");
  p.array("res", {64});
  p.common("f1a", {"res"});
  p.array("a", {20}).array("b", {20});
  p.integer("kc").real("ttemp");

  p.at(20).beginLoop("i", 1, sym("nmol1"));
  {
    p.at(21).assign("kc", 0);
    p.at(22).beginLoop("k", 1, 9);
    {
      p.at(23).store("b", {sym("k")}, sym("k") + sym("i"));
      p.at(24).beginGuard(elem("b", {sym("k")}) > sym("cut2"));
      p.assign("kc", sym("kc") + 1);
      p.endGuard();
    }
    p.endLoop();
    p.at(26).beginLoop("k", 2, 5);
    {
      p.at(27).beginGuard(elem("b", {sym("k") + 4}) > sym("cut2"));
      p.jump(1);
      p.endGuard();
      p.at(28).store("a", {sym("k") + 4}, elem("b", {sym("k")}) * rcst(2.0));
      p.at(29).labelNext(1).cont();
    }
    p.endLoop();
    p.at(30).beginGuard(sym("kc") != 0);
    p.jump(2);
    p.endGuard();
    p.at(31).beginLoop("k", 11, 14);
    {
      p.at(32).assign("ttemp", elem("a", {sym("k") - 5}) * rcst(0.5));
      p.at(33).store("res", {sym("i")}, elem("res", {sym("i")}) + sym("ttemp"));
    }
    p.endLoop();
    p.at(35).labelNext(2).cont();
  }
  p.endLoop();

  return b.build();
}

Program parseFig1a() {
  DiagnosticEngine diags;
  auto parsed = parseProgram(fig1aSource(), diags);
  EXPECT_TRUE(parsed.has_value()) << diags.str();
  return std::move(*parsed);
}

std::string render(const ProgramAnalysis& pa) {
  std::ostringstream os;
  for (const LoopAnalysis& la : pa.loops) {
    os << la.procName << " | line " << la.line << " | " << toString(la.classification) << '\n'
       << formatLoopAnalysis(la) << formatProvenance(la) << '\n';
  }
  return os.str();
}

std::string renderSession(const SessionResult& r) {
  std::ostringstream os;
  for (const SessionLoopResult& loop : r.loops) {
    os << loop.procName << " | line " << loop.line << " | " << toString(loop.classification)
       << '\n'
       << loop.report << loop.provenance << '\n';
  }
  return os.str();
}

// ------------------------------------------------------------------ fig1a

TEST(BuilderFig1aTest, ReportsByteIdenticalToParsedAcrossThreadCounts) {
  CacheGuard guard;
  BuildResult built = buildFig1a();
  ASSERT_TRUE(built.ok()) << built.error();

  for (std::size_t threads : {1u, 4u, 8u}) {
    AnalysisOptions options;
    options.numThreads = threads;
    ThreadPool pool(threads);

    ProgramAnalysis parsed = analyzeProgramUnit(parseFig1a(), options, pool);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    ASSERT_FALSE(parsed.loops.empty());

    BuildResult b = buildFig1a();
    ASSERT_TRUE(b.ok()) << b.error();
    ProgramAnalysis builtPa = analyzeProgramUnit(std::move(*b.program), options, pool);
    ASSERT_TRUE(builtPa.ok) << builtPa.error;

    EXPECT_EQ(render(parsed), render(builtPa)) << threads << " threads";
  }
  // The reconstruction even cites the same source lines (at() replay).
  AnalysisOptions options;
  ThreadPool pool(1);
  ProgramAnalysis pa = analyzeProgramUnit(std::move(*built.program), options, pool);
  ASSERT_TRUE(pa.ok) << pa.error;
  std::vector<int> lines;
  for (const LoopAnalysis& la : pa.loops) lines.push_back(la.line);
  EXPECT_EQ(lines, (std::vector<int>{20, 22, 26, 31}));
}

TEST(BuilderFig1aTest, FingerprintsMatchParsedProcedures) {
  BuildResult built = buildFig1a();
  ASSERT_TRUE(built.ok()) << built.error();
  Program parsed = parseFig1a();

  ASSERT_EQ(built.program->procedures.size(), parsed.procedures.size());
  for (std::size_t k = 0; k < parsed.procedures.size(); ++k) {
    EXPECT_EQ(fingerprintProcedure(built.program->procedures[k]),
              fingerprintProcedure(parsed.procedures[k]))
        << parsed.procedures[k].name;
  }
}

TEST(BuilderFig1aTest, RebuildRoundTripPreservesFingerprints) {
  Program parsed = parseFig1a();
  BuildResult rebuilt = builder::rebuild(parsed);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.error();
  ASSERT_EQ(rebuilt.program->procedures.size(), parsed.procedures.size());
  for (std::size_t k = 0; k < parsed.procedures.size(); ++k) {
    EXPECT_EQ(fingerprintProcedure(rebuilt.program->procedures[k]),
              fingerprintProcedure(parsed.procedures[k]))
        << parsed.procedures[k].name;
  }
}

TEST(BuilderFig1aTest, SessionTreatsBuilderAndParserAsOneFrontend) {
  CacheGuard guard;
  AnalysisSession session;

  BuildResult cold = buildFig1a();
  ASSERT_TRUE(cold.ok()) << cold.error();
  SessionResult first = session.submit(std::move(*cold.program));
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_TRUE(first.stats.fullInvalidation);

  // Identical builder-built program: nothing recomputes.
  BuildResult warm = buildFig1a();
  ASSERT_TRUE(warm.ok()) << warm.error();
  SessionResult second = session.submit(std::move(*warm.program));
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.stats.dirty, 0u);
  EXPECT_EQ(second.stats.modified, 0u);
  EXPECT_EQ(second.stats.unchanged, second.stats.procedures);
  EXPECT_EQ(second.stats.loopsRecomputed, 0u);
  EXPECT_EQ(renderSession(first), renderSession(second));

  // The parsed original diffs as unchanged against the builder-built units:
  // structural, SourceLoc-blind fingerprints make the frontends one cache.
  SessionResult parsed = session.submit(std::string(fig1aSource()));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.stats.dirty, 0u);
  EXPECT_EQ(renderSession(first), renderSession(parsed));
}

/// Every loop of a corpus run: kernel, position, verdict, report and the
/// full provenance, so any drift between two ingest paths shows.
std::string renderCorpus(const CorpusAnalysisResult& result) {
  std::ostringstream os;
  for (const CorpusRoutineResult& loop : result.loops) {
    os << '[' << loop.kernelId << "] " << loop.procName << " line " << loop.line << ' '
       << toString(loop.classification) << '\n'
       << loop.report << loop.provenance << loop.provenanceSummary << " ("
       << loop.provenanceEvidenceCount << " evidence)\n";
  }
  return os.str();
}

TEST(BuilderTest, CorpusRoundTripReproducesEveryReport) {
  CacheGuard guard;
  for (bool quantified : {false, true}) {
    for (std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(quantified ? "quantified" : "default") +
                   " threads=" + std::to_string(threads));
      AnalysisOptions options;
      options.quantified = quantified;
      options.numThreads = threads;
      CorpusAnalysisResult direct = analyzeCorpusParallel(options, CorpusIngest::Parse);
      CorpusAnalysisResult rebuilt =
          analyzeCorpusParallel(options, CorpusIngest::BuilderRoundTrip);
      ASSERT_FALSE(direct.loops.empty());
      EXPECT_EQ(renderCorpus(direct), renderCorpus(rebuilt));
      // On one thread the query stream is deterministic, so the summary and
      // cache counters of the two paths must agree as well.
      if (threads == 1) {
        EXPECT_EQ(formatCorpusStats(direct), formatCorpusStats(rebuilt));
      }
    }
  }
}

// ---------------------------------------------------------- fluent basics

TEST(BuilderTest, EdgeChainsOverrideCreationOrder) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.array("a", {100});

  // Created out of order on purpose; `>>` fixes the emission order.
  builder::NodeRef done = p.block("done");
  builder::NodeRef init = p.block("init");
  init.assign("s", 1);
  builder::NodeRef loop = p.beginLoop("i", 1, 100);
  p.store("a", {sym("i")}, sym("i") + sym("s"));
  p.endLoop();
  done.cont();
  init >> loop >> done;

  BuildResult r = b.build();
  ASSERT_TRUE(r.ok()) << r.error();
  const Procedure& proc = r.program->procedures.front();
  ASSERT_EQ(proc.body.size(), 3u);
  EXPECT_EQ(proc.body[0]->kind, Stmt::Kind::Assign);  // init first, not "done"
  EXPECT_EQ(proc.body[1]->kind, Stmt::Kind::Do);
  EXPECT_EQ(proc.body[2]->kind, Stmt::Kind::Continue);

  AnalysisOptions options;
  ThreadPool pool(1);
  ProgramAnalysis pa = analyzeProgramUnit(std::move(*r.program), options, pool);
  ASSERT_TRUE(pa.ok) << pa.error;
  ASSERT_EQ(pa.loops.size(), 1u);
  EXPECT_EQ(pa.loops[0].classification, LoopClass::Parallel);
}

TEST(BuilderTest, GuardRegionsEmitIfElse) {
  builder::ProgramBuilder b;
  auto& p = b.procedure("sel");
  p.param("n").integer("n");
  p.array("a", {100});
  p.beginLoop("i", 1, sym("n"));
  p.beginGuard(sym("i") < 50);
  p.store("a", {sym("i")}, 1);
  p.beginElse();
  p.store("a", {sym("i")}, 2);
  p.endGuard();
  p.endLoop();

  BuildResult r = b.build();
  ASSERT_TRUE(r.ok()) << r.error();
  const Procedure& proc = r.program->procedures.front();
  ASSERT_EQ(proc.body.size(), 1u);
  const Stmt& doStmt = *proc.body[0];
  ASSERT_EQ(doStmt.body.size(), 1u);
  const Stmt& guard = *doStmt.body[0];
  EXPECT_EQ(guard.kind, Stmt::Kind::If);
  EXPECT_EQ(guard.thenBody.size(), 1u);
  EXPECT_EQ(guard.elseBody.size(), 1u);

  AnalysisOptions options;
  ThreadPool pool(1);
  ProgramAnalysis pa = analyzeProgramUnit(std::move(*r.program), options, pool);
  ASSERT_TRUE(pa.ok) << pa.error;
  ASSERT_EQ(pa.loops.size(), 1u);
  EXPECT_EQ(pa.loops[0].classification, LoopClass::Parallel);
}

TEST(BuilderTest, DefinedScalarCountsAsDeclaredInSubscripts) {
  // Fortran implicit typing: `j` is never declared but is defined by an
  // assignment, so using it as a subscript is legal (the parser frontend
  // accepts the same shape).
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.array("a", {10});
  p.assign("j", 3);
  p.store("a", {sym("j")}, 1);
  BuildResult r = b.build();
  EXPECT_TRUE(r.ok()) << r.error();
}

// ------------------------------------------------------------ diagnostics

/// Builds and expects failure with `needle` somewhere in the diagnostics.
void expectBuildError(builder::ProgramBuilder& b, const std::string& needle) {
  BuildResult r = b.build();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find(needle), std::string::npos)
      << "expected \"" << needle << "\" in:\n"
      << r.error();
}

TEST(BuilderDiagnosticsTest, CyclicEdgeChainIsAnErrorNotControlFlow) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  builder::NodeRef x = p.block("x");
  builder::NodeRef y = p.block("y");
  x.assign("s", 1);
  y.assign("t", 2);
  x >> y;
  y >> x;
  expectBuildError(b, "cyclic edge chain through");
}

TEST(BuilderDiagnosticsTest, DuplicateBlockNames) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.block("body").assign("s", 1);
  p.block("body").assign("t", 2);
  expectBuildError(b, "duplicate block name 'body'");
}

TEST(BuilderDiagnosticsTest, UndeclaredSubscriptSymbol) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.array("a", {10});
  p.store("a", {sym("j")}, 1);  // j: never declared, assigned, or a loop var
  expectBuildError(b, "undeclared symbol 'j'");
}

TEST(BuilderDiagnosticsTest, UndeclaredLoopBoundSymbol) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.array("a", {10});
  p.beginLoop("i", 1, sym("n"));
  p.store("a", {sym("i")}, 0);
  p.endLoop();
  expectBuildError(b, "undeclared symbol 'n'");
}

TEST(BuilderDiagnosticsTest, UnclosedLoopRegion) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.beginLoop("i", 1, 10);
  p.assign("s", sym("i"));
  expectBuildError(b, "was never closed");
}

TEST(BuilderDiagnosticsTest, UnclosedGuardRegion) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.assign("s", 1);
  p.beginGuard(sym("s") > 0);
  p.assign("t", 2);
  expectBuildError(b, "was never closed");
}

TEST(BuilderDiagnosticsTest, EndLoopWithoutOpenLoop) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.assign("s", 1);
  p.endLoop();
  expectBuildError(b, "endLoop() without an open loop region");
}

TEST(BuilderDiagnosticsTest, BeginElseWithoutGuard) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.assign("s", 1);
  p.beginElse();
  expectBuildError(b, "beginElse() without an open guard region");
}

TEST(BuilderDiagnosticsTest, SubscriptRankMismatch) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.array("m", {10, 10});
  p.beginLoop("i", 1, 10);
  p.store("m", {sym("i")}, 0);
  p.endLoop();
  expectBuildError(b, "array 'm' expects 2 subscript(s), got 1");
}

TEST(BuilderDiagnosticsTest, DanglingGotoLabel) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.assign("s", 1);
  p.jump(7);
  expectBuildError(b, "GOTO references undefined label 7");
}

TEST(BuilderDiagnosticsTest, AssignmentToArrayWithoutSubscripts) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.array("a", {10});
  p.assign("a", 1);
  expectBuildError(b, "assignment to array 'a'");
}

TEST(BuilderDiagnosticsTest, AssignmentToParameter) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.constant("n", 10);
  p.assign("n", 3);
  expectBuildError(b, "assignment to PARAMETER 'n'");
}

TEST(BuilderDiagnosticsTest, SubscriptedScalarIsNeitherArrayNorIntrinsic) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.integer("x");
  p.assign("x", 1);
  p.assign("s", elem("x", {cst(1)}));
  expectBuildError(b, "neither a declared array nor an intrinsic");
}

TEST(BuilderDiagnosticsTest, MultipleSuccessorsNeedAGuardRegion) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  builder::NodeRef x = p.block("x");
  builder::NodeRef y = p.block("y");
  builder::NodeRef z = p.block("z");
  x.assign("s", 1);
  y.assign("t", 2);
  z.assign("u", 3);
  x >> y;
  x >> z;
  expectBuildError(b, "has multiple successors");
}

TEST(BuilderDiagnosticsTest, BlockLeftOutOfTheEdgeChain) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  builder::NodeRef x = p.block("x");
  builder::NodeRef y = p.block("y");
  builder::NodeRef z = p.block("z");
  x.assign("s", 1);
  y.assign("t", 2);
  z.assign("u", 3);
  x >> y;  // z has edges nowhere
  expectBuildError(b, "not linked into its region's edge chain");
}

TEST(BuilderDiagnosticsTest, EdgeAcrossRegionBoundaries) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  builder::NodeRef outer = p.block("outer");
  outer.assign("s", 1);
  p.beginLoop("i", 1, 10);
  builder::NodeRef inner = p.block("inner");
  inner.assign("t", sym("i"));
  outer >> inner;
  p.endLoop();
  expectBuildError(b, "crosses region boundaries");
}

TEST(BuilderDiagnosticsTest, EmissionIntoALoopNodeNeedsABlock) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  builder::NodeRef loop = p.beginLoop("i", 1, 10);
  p.endLoop();
  loop.assign("s", 1);
  expectBuildError(b, "cannot emit a statement into region node");
}

TEST(BuilderDiagnosticsTest, MainProgramWithFormalsAndUndeclaredCommon) {
  // One build() surfaces every problem: both errors are reported together.
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.param("x");
  p.common("blk", {"q"});
  p.assign("s", 1);
  BuildResult r = b.build();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("cannot have formal parameters"), std::string::npos) << r.error();
  EXPECT_NE(r.error().find("COMMON /blk/ lists undeclared 'q'"), std::string::npos) << r.error();
  EXPECT_GE(r.diags.errorCount(), 2u);
}

TEST(BuilderDiagnosticsTest, DuplicateDeclaration) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.integer("n").real("n");
  p.assign("n", 1);
  expectBuildError(b, "duplicate declaration of 'n'");
}

// Symbol names follow the lexers' identifier rule in every position, so no
// builder name can alias sema's `scope::name` keys or a DO index's reserved
// primed copy `var'`.
TEST(BuilderDiagnosticsTest, PrimedNameIsNotAnIdentifier) {
  builder::ProgramBuilder b;
  auto& p = b.procedure("p");
  p.real("x'");
  p.assign("x'", 1);
  expectBuildError(b, "procedure 'p': 'x'' is not an identifier");
}

TEST(BuilderDiagnosticsTest, ScopedNameIsNotAnIdentifier) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.array("a", {10});
  p.beginLoop("i", 1, 10);
  p.store("a", {sym("i")}, sym("main::n"));
  p.endLoop();
  expectBuildError(b, "procedure 'main': 'main::n' is not an identifier");
}

TEST(BuilderDiagnosticsTest, DollarNameIsNotAnIdentifier) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.array("a", {10});
  p.beginLoop("psi$1", 1, 10);
  p.store("a", {sym("psi$1")}, 0);
  p.endLoop();
  expectBuildError(b, "procedure 'main': 'psi$1' is not an identifier");
}

TEST(BuilderDiagnosticsTest, NameWithASpaceIsNotAnIdentifier) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.call("do work", {sym("s")});
  expectBuildError(b, "procedure 'main': 'do work' is not an identifier");
}

TEST(BuilderDiagnosticsTest, LeadingDigitIsNotAnIdentifier) {
  builder::ProgramBuilder b;
  auto& p = b.procedure("p");
  p.param("1x");
  p.assign("s", 1);
  expectBuildError(b, "procedure 'p': '1x' is not an identifier");
}

TEST(BuilderDiagnosticsTest, EmptyNameIsNotAnIdentifier) {
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.integer("n");
  p.common("blk", {"n", ""});
  p.assign("n", 1);
  expectBuildError(b, "procedure 'main': '' is not an identifier");
}

TEST(BuilderTest, BlankCommonAndFreeBlockNamesAreAccepted) {
  // A blank COMMON has an empty block name, and basic-block names are
  // labels, not symbols: neither is held to the identifier rule.
  builder::ProgramBuilder b;
  auto& p = b.mainProgram("main");
  p.integer("n");
  p.common("", {"n"});
  p.block("set up n").assign("n", 1);
  BuildResult r = b.build();
  EXPECT_TRUE(r.ok()) << r.error();
}

TEST(BuilderDiagnosticsTest, BuildIsSingleShot) {
  builder::ProgramBuilder b;
  b.mainProgram("main").assign("s", 1);
  BuildResult first = b.build();
  ASSERT_TRUE(first.ok()) << first.error();
  BuildResult second = b.build();
  EXPECT_FALSE(second.ok());
  EXPECT_NE(second.error().find("called twice"), std::string::npos) << second.error();
}

}  // namespace
}  // namespace panorama
