// End-to-end soundness fuzzing: generate random (but well-formed) Fortran
// kernels, then require
//
//   1. the analyzer's per-iteration summaries (MOD_i, UE_i, DE_i, MOD_{<i})
//      and whole-loop sets to match interpreter ground truth exactly when
//      decidable and to over-approximate otherwise, and
//   2. every privatization the analyzer licenses to survive the scrambled
//      privatized-execution witness bit for bit.
//
// The generator exercises: affine and strided subscripts, nested loops with
// symbolic bounds, IF guards over integers and real array elements, scalar
// temporaries, induction variables, and work-array patterns.
// The builder frontend is fuzzed the same way: every generated kernel is
// replayed through builder::rebuild() (fingerprints and loop reports must
// be identical to the parsed original), and a second generator constructs
// random well-formed programs directly through the fluent ProgramBuilder
// API and requires the full pipeline to accept them.
// The reserved primed DO indices (SymbolTable::primed, the i' of MOD_{<i})
// must never escape their expansion: no loop summary of a random kernel or
// of a corpus program mentions one, with or without the quantified
// extension and DE sets.
#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "panorama/analysis/analysis.h"
#include "panorama/analysis/driver.h"
#include "panorama/ast/fingerprint.h"
#include "panorama/builder/builder.h"
#include "panorama/corpus/corpus.h"
#include "panorama/frontend/parser.h"
#include "panorama/interp/interpreter.h"
#include "panorama/session/session.h"
#include "panorama/support/thread_pool.h"
#include "program_gen.h"

namespace panorama {
namespace {

using ElementSetMap = std::map<ArrayId, ElementSet>;

void checkAgainst(const GarList& symbolic, ArrayId array, const Binding& bnd,
                  const ElementSet& truth, const char* what, const std::string& src) {
  bool undecided = false;
  ElementSet got;
  for (const Gar& g : symbolic.gars()) {
    if (g.array() != array) continue;
    auto e = g.enumerate(bnd);
    if (!e) {
      undecided = true;
      continue;
    }
    got.insert(e->begin(), e->end());
  }
  if (undecided) {
    // over-approximation only: decidable pieces may not *miss* anything they
    // claim... nothing to check beyond coverage-by-Δ.
    return;
  }
  EXPECT_EQ(got, truth) << what << " mismatch\n--- program ---\n" << src;
}

class FuzzTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(FuzzTest, AnalyzerMatchesInterpreterOnRandomKernels) {
  ProgramGen gen(GetParam() * 2654435761u + 17u);
  ThreadPool pool(1);
  AnalysisOptions options;
  options.computeDE = true;  // DE_i is checked below
  for (int round = 0; round < 30; ++round) {
    std::string src = gen.generate();
    SCOPED_TRACE(src);

    DiagnosticEngine diags;
    auto program = parseProgram(src, diags);
    ASSERT_TRUE(program.has_value()) << diags.str() << "\n" << src;
    ProgramAnalysis pa = analyzeProgramUnit(std::move(*program), options, pool);
    ASSERT_TRUE(pa.ok) << pa.error << "\n" << src;

    // The fuzzed loop is the second top-level DO of the main program.
    const Procedure& main = pa.program.procedures[0];
    const Stmt* loop = nullptr;
    for (const StmtPtr& s : main.body)
      if (s->kind == Stmt::Kind::Do) loop = s.get();
    ASSERT_NE(loop, nullptr);
    const LoopSummary* ls = pa.analyzer->loopSummary(loop);
    ASSERT_NE(ls, nullptr);

    Interpreter interp(pa.program, pa.sema);
    Interpreter::Config cfg;
    cfg.traceLoop = loop;
    auto res = interp.run(cfg);
    ASSERT_TRUE(res.ok) << res.error << "\n" << src;
    const LoopTrace& t = interp.trace();
    if (!ls->boundsKnown) continue;

    std::vector<ArrayId> arrays;
    for (const auto& [name, id] : pa.sema.procs.at("fz").arrayIds) arrays.push_back(id);

    ElementSetMap modSoFar;
    for (std::size_t it = 0; it < t.iterEntry.size(); ++it) {
      Binding bnd = t.loopEntry;
      auto idx = t.iterEntry[it].find(ls->bounds.index);
      ASSERT_NE(idx, t.iterEntry[it].end());
      bnd[ls->bounds.index] = idx->second;

      auto truthOf = [&](const std::vector<ElementSetMap>& v, ArrayId a) {
        auto found = v[it].find(a);
        return found == v[it].end() ? ElementSet{} : found->second;
      };
      for (ArrayId a : arrays) {
        checkAgainst(ls->modIter, a, bnd, truthOf(t.modPerIter, a), "MOD_i", src);
        checkAgainst(ls->ueIter, a, bnd, truthOf(t.uePerIter, a), "UE_i", src);
        checkAgainst(ls->deIter, a, bnd, truthOf(t.dePerIter, a), "DE_i", src);
        auto before = modSoFar.find(a);
        checkAgainst(ls->modBefore, a, bnd,
                     before == modSoFar.end() ? ElementSet{} : before->second, "MOD_<i", src);
      }
      for (const auto& [a, elems] : t.modPerIter[it]) modSoFar[a].insert(elems.begin(), elems.end());
    }
    // Whole-loop sets against the whole-loop trace.
    for (ArrayId a : arrays) {
      auto whole = [&](const ElementSetMap& m) {
        auto f = m.find(a);
        return f == m.end() ? ElementSet{} : f->second;
      };
      checkAgainst(ls->mod, a, t.loopEntry, whole(t.modWhole), "MOD(L)", src);
      checkAgainst(ls->ue, a, t.loopEntry, whole(t.ueWhole), "UE(L)", src);
    }

    // Witness: anything the analyzer privatizes (in a loop it calls
    // parallel) must survive scrambled execution.
    const LoopAnalysis* la = nullptr;
    for (const LoopAnalysis& candidate : pa.loops)
      if (candidate.loop == loop) la = &candidate;
    ASSERT_NE(la, nullptr);
    if (la->classification == LoopClass::Serial) continue;
    std::vector<ArrayId> privatized;
    std::set<ArrayId> dead;
    for (const ArrayPrivatization& ap : la->arrays) {
      if (!ap.privatizable) continue;
      privatized.push_back(ap.array);
      if (!ap.needsCopyOut) dead.insert(ap.array);
    }
    Interpreter scrambled(pa.program, pa.sema);
    Interpreter::Config scfg;
    scfg.privatizeLoop = loop;
    scfg.privatizedArrays = privatized;
    scfg.scrambleSeed = GetParam() + 3u;
    auto sres = scrambled.run(scfg);
    ASSERT_TRUE(sres.ok) << sres.error << "\n" << src;
    for (const auto& [id, store] : interp.arrays()) {
      if (dead.count(id)) continue;
      auto sIt = scrambled.arrays().find(id);
      std::map<std::vector<std::int64_t>, double> got;
      if (sIt != scrambled.arrays().end()) got = sIt->second;
      EXPECT_EQ(got, store) << "privatized execution diverged\n--- program ---\n" << src;
    }
  }
}

/// The primed DO indices `var'` the analysis interned.
std::vector<VarId> primedIndices(const SymbolTable& symbols) {
  std::vector<VarId> out;
  for (std::uint32_t id = 0; id < symbols.size(); ++id)
    if (symbols.name(VarId{id}).ends_with('\'')) out.push_back(VarId{id});
  return out;
}

/// Names the first loop-summary set of `pa` that mentions a primed DO
/// index, or returns "" when none does.
std::string primedIndexEscape(const ProgramAnalysis& pa) {
  const std::vector<VarId> primed = primedIndices(pa.sema.symbols);
  std::string found;
  std::function<void(const std::vector<StmtPtr>&)> walk = [&](const std::vector<StmtPtr>& body) {
    for (const StmtPtr& s : body) {
      if (!found.empty()) return;
      if (s->kind == Stmt::Kind::Do) {
        if (const LoopSummary* ls = pa.analyzer->loopSummary(s.get())) {
          const std::pair<const char*, const GarList*> sets[] = {
              {"MOD_i", &ls->modIter},    {"UE_i", &ls->ueIter},     {"DE_i", &ls->deIter},
              {"MOD_<i", &ls->modBefore}, {"MOD_>i", &ls->modAfter}, {"MOD", &ls->mod},
              {"UE", &ls->ue},            {"DE", &ls->de},           {"UE_after", &ls->ueAfter}};
          for (const auto& [name, list] : sets)
            for (VarId p : primed)
              if (list->containsVar(p)) {
                found = "DO " + s->doVar + " (line " + std::to_string(s->loc.line) + "): " +
                        name + " mentions " + pa.sema.symbols.name(p);
                return;
              }
        }
      }
      walk(s->body);
      walk(s->thenBody);
      walk(s->elseBody);
    }
  };
  for (const Procedure& proc : pa.program.procedures) walk(proc.body);
  return found;
}

/// Analyzes `src` under every quantified/DE combination and expects no
/// loop summary to mention a primed DO index.
void expectPrimedIndicesStayInside(const std::string& src, ThreadPool& pool) {
  for (bool quantified : {false, true})
    for (bool computeDE : {false, true}) {
      AnalysisOptions options;
      options.quantified = quantified;
      options.computeDE = computeDE;
      DiagnosticEngine diags;
      auto program = parseProgram(src, diags);
      ASSERT_TRUE(program.has_value()) << diags.str() << "\n" << src;
      ProgramAnalysis pa = analyzeProgramUnit(std::move(*program), options, pool);
      ASSERT_TRUE(pa.ok) << pa.error << "\n" << src;
      EXPECT_FALSE(primedIndices(pa.sema.symbols).empty()) << src;
      EXPECT_EQ(primedIndexEscape(pa), "")
          << "quantified=" << quantified << " computeDE=" << computeDE << "\n" << src;
    }
}

// Same kernels as AnalyzerMatchesInterpreterOnRandomKernels.
TEST_P(FuzzTest, PrimedIndexNeverEscapesRandomKernelSummaries) {
  ProgramGen gen(GetParam() * 2654435761u + 17u);
  ThreadPool pool(1);
  for (int round = 0; round < 30; ++round) expectPrimedIndicesStayInside(gen.generate(), pool);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(PrimedIndexTest, NeverEscapesCorpusSummaries) {
  ThreadPool pool(1);
  std::vector<std::string> sources{fig1aSource(), fig1bSource(), fig1cSource()};
  for (const CorpusLoop& kernel : perfectCorpus()) sources.push_back(kernel.source);
  ASSERT_EQ(sources.size(), 15u);
  for (const std::string& src : sources) expectPrimedIndicesStayInside(src, pool);
}

std::string renderLoops(const ProgramAnalysis& pa) {
  std::ostringstream os;
  for (const LoopAnalysis& la : pa.loops)
    os << formatLoopAnalysis(la) << formatProvenance(la) << '\n';
  return os.str();
}

// Every random kernel the Fortran generator produces must survive the
// parse → builder::rebuild() replay with identical fingerprints and
// byte-identical loop reports: the fluent API spans the parser's output.
TEST_P(FuzzTest, BuilderRoundTripPreservesRandomKernels) {
  ProgramGen gen(GetParam() * 2654435761u + 29u);
  AnalysisOptions options;
  ThreadPool pool(1);
  for (int round = 0; round < 20; ++round) {
    std::string src = gen.generate();
    SCOPED_TRACE(src);

    DiagnosticEngine diags;
    auto parsed = parseProgram(src, diags);
    ASSERT_TRUE(parsed.has_value()) << diags.str() << "\n" << src;

    builder::BuildResult rebuilt = builder::rebuild(*parsed);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.error() << "\n" << src;
    ASSERT_EQ(rebuilt.program->procedures.size(), parsed->procedures.size());
    for (std::size_t k = 0; k < parsed->procedures.size(); ++k)
      EXPECT_EQ(fingerprintProcedure(rebuilt.program->procedures[k]),
                fingerprintProcedure(parsed->procedures[k]))
          << parsed->procedures[k].name;

    ProgramAnalysis direct = analyzeProgramUnit(std::move(*parsed), options, pool);
    ProgramAnalysis replayed = analyzeProgramUnit(std::move(*rebuilt.program), options, pool);
    ASSERT_TRUE(direct.ok) << direct.error;
    ASSERT_TRUE(replayed.ok) << replayed.error;
    EXPECT_EQ(renderLoops(direct), renderLoops(replayed));
  }
}

/// Generates random well-formed programs directly through the fluent
/// ProgramBuilder API (no text involved): nested loops, guards with else
/// branches, affine stores and scalar temps over a fixed symbol table.
class BuilderGen {
 public:
  explicit BuilderGen(unsigned seed) : rng_(seed) {}

  builder::BuildResult generate() {
    using builder::sym;
    builder::ProgramBuilder b;
    builder::ProcedureBuilder& p = b.mainProgram("fz");
    p.array("wa", {200}).array("wb", {200}).array("wc", {200});
    p.integer("n").integer("m").real("t");
    p.assign("n", pick(3, 8));
    p.assign("m", pick(2, 6));
    p.assign("t", 0.0);
    p.beginLoop("i", 1, sym("n"));
    int stmts = pick(2, 5);
    for (int k = 0; k < stmts; ++k) genStmt(p, 1, false);
    p.endLoop();
    return b.build();
  }

 private:
  int pick(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng_); }
  bool coin() { return pick(0, 1) == 1; }

  std::string arrayName() {
    const char* names[] = {"wa", "wb", "wc"};
    return names[pick(0, 2)];
  }

  builder::Val subscript(bool inner) {
    using builder::cst;
    using builder::sym;
    switch (pick(0, 4)) {
      case 0: return cst(pick(1, 30));
      case 1: return sym("i") + pick(0, 20);
      case 2: return sym("i") * 2 + pick(1, 9);
      case 3: return inner ? sym("j") + pick(0, 20) : sym("i") + 1;
      default: return inner ? sym("i") + sym("j") : sym("i") * 2 + 1;
    }
  }

  builder::Val valueExpr(bool inner) {
    using builder::elem;
    using builder::sym;
    switch (pick(0, 3)) {
      case 0: return sym("i") * 2 + 1;
      case 1: return elem(arrayName(), {subscript(inner)}) + 1;
      case 2: return sym("t") + sym("i");
      default: return elem(arrayName(), {subscript(inner)}) * 2 + sym("i");
    }
  }

  void genStmt(builder::ProcedureBuilder& p, int depth, bool inner) {
    using builder::elem;
    using builder::sym;
    int kind = pick(0, 7);
    if (depth >= 3) kind = pick(0, 3);  // cap nesting
    switch (kind) {
      case 0:
      case 1: {
        p.store(arrayName(), {subscript(inner)}, valueExpr(inner));
        return;
      }
      case 2: {
        p.assign("t", valueExpr(inner));
        return;
      }
      case 3: {
        p.assign("t", valueExpr(inner));
        p.store(arrayName(), {subscript(inner)}, sym("t"));
        return;
      }
      case 4:
      case 5: {  // inner loop over j
        p.beginLoop("j", 1, coin() ? sym("m") : builder::cst(pick(2, 5)));
        int stmts = pick(1, 2);
        for (int k = 0; k < stmts; ++k) genStmt(p, depth + 1, true);
        p.endLoop();
        return;
      }
      default: {  // guard, sometimes with an else branch
        p.beginGuard(coin() ? sym("i") <= pick(1, 6)
                            : elem(arrayName(), {subscript(inner)}) > builder::rcst(5.0));
        genStmt(p, depth + 1, inner);
        if (coin()) {
          p.beginElse();
          genStmt(p, depth + 1, inner);
        }
        p.endGuard();
        return;
      }
    }
  }

  std::mt19937 rng_;
};

// Random fluent-API programs build cleanly, run the full pipeline, and are
// themselves rebuild()-stable (builder ∘ builder = builder).
TEST_P(FuzzTest, RandomBuilderProgramsRunTheFullPipeline) {
  BuilderGen gen(GetParam() * 2246822519u + 11u);
  AnalysisOptions options;
  ThreadPool pool(1);
  for (int round = 0; round < 20; ++round) {
    builder::BuildResult built = gen.generate();
    ASSERT_TRUE(built.ok()) << built.error();

    builder::BuildResult replay = builder::rebuild(*built.program);
    ASSERT_TRUE(replay.ok()) << replay.error();
    ASSERT_EQ(replay.program->procedures.size(), built.program->procedures.size());
    for (std::size_t k = 0; k < built.program->procedures.size(); ++k)
      EXPECT_EQ(fingerprintProcedure(replay.program->procedures[k]),
                fingerprintProcedure(built.program->procedures[k]));

    ProgramAnalysis pa = analyzeProgramUnit(std::move(*built.program), options, pool);
    ASSERT_TRUE(pa.ok) << pa.error;
    ASSERT_FALSE(pa.loops.empty());
    for (const LoopAnalysis& la : pa.loops) {
      // Reports render without crashing; classification is one of the three.
      EXPECT_FALSE(formatLoopAnalysis(la).empty());
      EXPECT_NE(toString(la.classification), nullptr);
    }
  }
}

// ----- comment/blank-line-only resubmits (DESIGN.md §4.9 line remap) -------
//
// For a random kernel, insert a comment or blank line at EVERY line
// boundary in turn and resubmit to a persistent session. No fingerprint
// changes, so the contract is absolute: dirty cone 0 at every position,
// and every cached loop report re-cited at its post-edit line —
// byte-identical to a cold analysis of the shifted source.
std::string renderSession(const SessionResult& r) {
  std::ostringstream os;
  for (const SessionLoopResult& loop : r.loops)
    os << loop.procName << " | line " << loop.line << " | " << toString(loop.classification)
       << '\n'
       << loop.report << loop.provenance << '\n';
  return os.str();
}

TEST_P(FuzzTest, CommentOnlyResubmitsBetweenEveryStatementStayClean) {
  ProgramGen gen(GetParam() * 40503u + 23u);
  const std::string src = gen.generate();
  SCOPED_TRACE(src);

  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < src.size()) {
    std::size_t end = src.find('\n', start);
    if (end == std::string::npos) end = src.size();
    lines.push_back(src.substr(start, end - start));
    start = end + 1;
  }
  ASSERT_GT(lines.size(), 3u);

  AnalysisSession session;
  SessionResult cold = session.submit(src);
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_FALSE(cold.loops.empty());

  const char* fillers[] = {"c fuzz comment shift", "", "! trailing-style comment"};
  for (std::size_t at = 0; at <= lines.size(); ++at) {
    const std::string filler = fillers[at % 3];
    std::string shifted;
    for (std::size_t k = 0; k < lines.size(); ++k) {
      if (k == at) shifted += filler + "\n";
      shifted += lines[k] + "\n";
    }
    if (at == lines.size()) shifted += filler + "\n";

    SessionResult warm = session.submit(shifted);
    ASSERT_TRUE(warm.ok) << "insert at line " << at << ":\n" << warm.error;
    EXPECT_EQ(warm.stats.dirty, 0u) << "insert at line " << at;
    EXPECT_EQ(warm.stats.modified, 0u) << "insert at line " << at;

    // Every loop strictly below the insertion point cites one line lower;
    // loops above it keep their cold line.
    ASSERT_EQ(cold.loops.size(), warm.loops.size()) << "insert at line " << at;
    for (std::size_t k = 0; k < cold.loops.size(); ++k) {
      const int expected =
          cold.loops[k].line + (static_cast<std::size_t>(cold.loops[k].line) > at ? 1 : 0);
      EXPECT_EQ(expected, warm.loops[k].line) << "insert at line " << at << ", loop " << k;
    }

    // Byte-identity against a cold analysis of the shifted source.
    AnalysisSession coldSession;
    SessionResult reference = coldSession.submit(shifted);
    ASSERT_TRUE(reference.ok) << reference.error;
    EXPECT_EQ(renderSession(reference), renderSession(warm)) << "insert at line " << at;
  }
}

}  // namespace
}  // namespace panorama
