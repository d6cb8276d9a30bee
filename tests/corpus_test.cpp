// The evaluation backbone: every Perfect-corpus kernel must (a) parse,
// analyze and execute, and (b) reproduce the paper's Table 1 / Table 2
// matrix — which arrays are privatizable under the full analysis, and which
// of T1 (symbolic), T2 (IF conditions), T3 (interprocedural) are *required*
// (disabling a required technique must lose at least one listed array;
// disabling an unrequired one must lose none).
#include <gtest/gtest.h>

#include "panorama/analysis/analysis.h"
#include "panorama/analysis/driver.h"
#include "panorama/corpus/corpus.h"
#include "panorama/frontend/parser.h"
#include "panorama/interp/interpreter.h"

namespace panorama {
namespace {

struct CorpusRun {
  ProgramAnalysis pa;
  LoopAnalysis loop;  ///< the evaluated loop's entry of pa.loops
};

CorpusRun analyzeCorpusLoop(const CorpusLoop& cl, AnalysisOptions options) {
  DiagnosticEngine diags;
  auto p = parseProgram(cl.source, diags);
  EXPECT_TRUE(p.has_value()) << cl.id << ": " << diags.str();
  ThreadPool pool(1);
  CorpusRun r{analyzeProgramUnit(p ? std::move(*p) : Program{}, options, pool), {}};
  EXPECT_TRUE(r.pa.ok) << cl.id << ": " << r.pa.error;
  const Stmt* loop = findOuterLoop(r.pa.program, cl.routine, cl.outerLoopIndex);
  EXPECT_NE(loop, nullptr) << cl.id;
  for (const LoopAnalysis& la : r.pa.loops)
    if (la.loop == loop) r.loop = la;
  return r;
}

bool arrayPrivatizable(const LoopAnalysis& la, const std::string& name) {
  for (const ArrayPrivatization& ap : la.arrays)
    if (ap.name == name) return ap.privatizable;
  return false;
}

/// True when every Table-2 "yes" array of the loop is privatizable.
bool allListedPrivatizable(const LoopAnalysis& la, const CorpusLoop& cl) {
  for (const std::string& name : cl.privatizable)
    if (!arrayPrivatizable(la, name)) return false;
  return true;
}

class CorpusMatrixTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CorpusMatrixTest, Table2FullAnalysisStatus) {
  const CorpusLoop& cl = perfectCorpus()[GetParam()];
  CorpusRun r = analyzeCorpusLoop(cl, {});
  for (const std::string& name : cl.privatizable)
    EXPECT_TRUE(arrayPrivatizable(r.loop, name))
        << cl.id << ": " << name << " should be privatizable\n"
        << formatLoopAnalysis(r.loop);
  for (const std::string& name : cl.notPrivatizable)
    EXPECT_FALSE(arrayPrivatizable(r.loop, name))
        << cl.id << ": " << name << " must stay non-privatizable (base analysis)";
}

TEST_P(CorpusMatrixTest, Table1TechniqueRequirements) {
  const CorpusLoop& cl = perfectCorpus()[GetParam()];
  struct Config {
    const char* name;
    bool expectedNeeded;
    AnalysisOptions options;
  };
  AnalysisOptions noT1;
  noT1.symbolicAnalysis = false;
  AnalysisOptions noT2;
  noT2.ifConditions = false;
  AnalysisOptions noT3;
  noT3.interprocedural = false;
  const Config configs[] = {
      {"T1 (symbolic)", cl.needsT1, noT1},
      {"T2 (IF conditions)", cl.needsT2, noT2},
      {"T3 (interprocedural)", cl.needsT3, noT3},
  };
  for (const Config& cfg : configs) {
    CorpusRun r = analyzeCorpusLoop(cl, cfg.options);
    bool stillWorks = allListedPrivatizable(r.loop, cl);
    if (cfg.expectedNeeded) {
      EXPECT_FALSE(stillWorks) << cl.id << ": paper says " << cfg.name
                               << " is required, but privatization survived without it";
    } else {
      EXPECT_TRUE(stillWorks) << cl.id << ": paper says " << cfg.name
                              << " is NOT required, but privatization was lost\n"
                              << formatLoopAnalysis(r.loop);
    }
  }
}

TEST_P(CorpusMatrixTest, KernelExecutes) {
  const CorpusLoop& cl = perfectCorpus()[GetParam()];
  DiagnosticEngine diags;
  auto p = parseProgram(cl.source, diags);
  ASSERT_TRUE(p.has_value()) << diags.str();
  auto sr = analyze(*p, diags);
  ASSERT_TRUE(sr.has_value()) << diags.str();
  Interpreter interp(*p, *sr);
  Interpreter::Config cfg;
  cfg.traceLoop = findOuterLoop(*p, cl.routine, cl.outerLoopIndex);
  ASSERT_NE(cfg.traceLoop, nullptr);
  auto res = interp.run(cfg);
  ASSERT_TRUE(res.ok) << cl.id << ": " << res.error;
  EXPECT_FALSE(interp.trace().iterOps.empty()) << cl.id;
  EXPECT_GT(res.steps, 100u) << cl.id;
}

TEST_P(CorpusMatrixTest, PrivatizedExecutionWitness) {
  // Semantics check: executing the loop with shuffled iterations and
  // per-iteration private copies of the privatized arrays must produce
  // bitwise-identical array memory — the transformation the analysis
  // licenses is actually safe on this input.
  const CorpusLoop& cl = perfectCorpus()[GetParam()];
  CorpusRun r = analyzeCorpusLoop(cl, {});
  const ProcSymbols& sym = r.pa.sema.procs.at(cl.routine);
  // Privatize the ground-truth set: what the analysis proved plus what the
  // paper says is privatizable even though the base analysis cannot prove
  // it (MDG's RL) — the witness validates that claim semantically.
  std::vector<ArrayId> privatized;
  std::set<ArrayId> skipCompare;  // privatized & dead after the loop
  for (const ArrayPrivatization& ap : r.loop.arrays) {
    bool groundTruth =
        ap.privatizable || std::find(cl.notPrivatizable.begin(), cl.notPrivatizable.end(),
                                     ap.name) != cl.notPrivatizable.end();
    if (!groundTruth) continue;
    privatized.push_back(ap.array);
    // Without copy-out the array is dead after the loop: its final bits are
    // unspecified and must not be compared.
    if (!ap.needsCopyOut) skipCompare.insert(ap.array);
  }
  ASSERT_FALSE(privatized.empty()) << cl.id;

  const Stmt* loop = findOuterLoop(r.pa.program, cl.routine, cl.outerLoopIndex);
  Interpreter serial(r.pa.program, r.pa.sema);
  auto sres = serial.run({});
  ASSERT_TRUE(sres.ok) << sres.error;

  auto comparable = [&](const Interpreter& interp) {
    std::map<ArrayId, std::map<std::vector<std::int64_t>, double>> out;
    for (const auto& [id, store] : interp.arrays())
      if (!skipCompare.count(id)) out.emplace(id, store);
    return out;
  };
  (void)sym;

  for (unsigned seed : {1u, 7u, 42u}) {
    Interpreter scrambled(r.pa.program, r.pa.sema);
    Interpreter::Config cfg;
    cfg.privatizeLoop = loop;
    cfg.privatizedArrays = privatized;
    cfg.scrambleSeed = seed;
    auto pres = scrambled.run(cfg);
    ASSERT_TRUE(pres.ok) << cl.id << ": " << pres.error;
    EXPECT_EQ(comparable(serial), comparable(scrambled))
        << cl.id << ": privatized execution diverged (seed " << seed << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(AllLoops, CorpusMatrixTest,
                         ::testing::Range<std::size_t>(0, 12),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           std::string name = perfectCorpus()[info.param].id;
                           for (char& c : name)
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           return name;
                         });

TEST(CorpusTest, Fig1ExamplesAnalyzeAsInThePaper) {
  struct Expect {
    const char* source;
    const char* routine;
    const char* array;
    bool privatizable;
  };
  const Expect cases[] = {
      {fig1aSource(), "interf", "a", false},  // needs ∀ quantifiers (§5.2)
      {fig1aSource(), "interf", "b", true},
      {fig1bSource(), "filer", "a", true},
      {fig1cSource(), "drive", "a", true},
  };
  for (const Expect& e : cases) {
    CorpusLoop fake;
    fake.id = e.routine;
    fake.routine = e.routine;
    fake.outerLoopIndex = 0;
    fake.source = e.source;
    CorpusRun r = analyzeCorpusLoop(fake, {});
    EXPECT_EQ(arrayPrivatizable(r.loop, e.array), e.privatizable)
        << e.routine << "/" << e.array << "\n"
        << formatLoopAnalysis(r.loop);
  }
}

TEST(CorpusTest, Fig1ClassificationsAndProvenanceSummaries) {
  // The classifications the paper's Figure 1 walkthrough implies, plus the
  // one-line decision digest each verdict rests on.
  struct Expect {
    const char* source;
    const char* routine;
    LoopClass classification;
    const char* summary;
  };
  const Expect cases[] = {
      // Fig 1(a): `a` needs the ∀-quantified proof of §5.2, so the base
      // analysis cannot discharge the flow test and the loop stays serial.
      {fig1aSource(), "interf", LoopClass::Serial,
       "serial: flow-test unresolved on a; carried-flow unresolved; "
       "carried-output unresolved; carried-anti unresolved"},
      {fig1bSource(), "filer", LoopClass::ParallelAfterPrivatization,
       "parallel (after privatization) [privatized: a]"},
      {fig1cSource(), "drive", LoopClass::ParallelAfterPrivatization,
       "parallel (after privatization) [privatized: a]"},
  };
  for (const Expect& e : cases) {
    CorpusLoop fake;
    fake.id = e.routine;
    fake.routine = e.routine;
    fake.outerLoopIndex = 0;
    fake.source = e.source;
    CorpusRun r = analyzeCorpusLoop(fake, {});
    EXPECT_EQ(r.loop.classification, e.classification) << e.routine;
    EXPECT_EQ(provenanceSummary(r.loop), e.summary) << formatProvenance(r.loop);
    // The trail always ends in a Classification record that names the final
    // verdict, and --explain renders one "why" line per evidence entry.
    ASSERT_FALSE(r.loop.provenance.evidence.empty()) << e.routine;
    const obs::Evidence& last = r.loop.provenance.evidence.back();
    EXPECT_EQ(last.kind, obs::EvidenceKind::Classification);
    EXPECT_EQ(last.subject, toString(e.classification));
    std::string rendered = formatProvenance(r.loop);
    std::size_t whyLines = 0;
    for (std::size_t pos = 0; (pos = rendered.find("    why ", pos)) != std::string::npos;
         pos += 8)
      ++whyLines;
    EXPECT_EQ(whyLines, r.loop.provenance.evidence.size());
  }
}

TEST(CorpusTest, Fig1aFlowTestEvidenceCarriesRegionText) {
  // The unresolved UE_i ∩ MOD_<i test on Fig 1(a)'s `a` must show the two
  // region lists it compared — that is the point of --explain.
  CorpusLoop fake;
  fake.id = "interf";
  fake.routine = "interf";
  fake.outerLoopIndex = 0;
  fake.source = fig1aSource();
  CorpusRun r = analyzeCorpusLoop(fake, {});
  bool found = false;
  for (const obs::Evidence* e : r.loop.provenance.ofKind(obs::EvidenceKind::FlowTest)) {
    if (e->subject != "a") continue;
    found = true;
    EXPECT_NE(e->verdict, Truth::True);
    EXPECT_NE(e->detail.find("UE_i = "), std::string::npos) << e->detail;
    EXPECT_NE(e->detail.find("MOD_<i = "), std::string::npos) << e->detail;
  }
  EXPECT_TRUE(found) << formatProvenance(r.loop);
}

TEST(CorpusTest, Fig1ExamplesExecute) {
  for (const char* src : {fig1aSource(), fig1bSource(), fig1cSource()}) {
    DiagnosticEngine diags;
    auto p = parseProgram(src, diags);
    ASSERT_TRUE(p.has_value()) << diags.str();
    auto sr = analyze(*p, diags);
    ASSERT_TRUE(sr.has_value()) << diags.str();
    Interpreter interp(*p, *sr);
    auto res = interp.run({});
    EXPECT_TRUE(res.ok) << res.error;
  }
}

}  // namespace
}  // namespace panorama
