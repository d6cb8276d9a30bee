// The paper's three motivating examples (Figure 1), analyzed end to end:
//   (a) MDG interf  — IF-condition inference through a counter (the base
//       analysis must stay conservative; the §5.2 quantified extension
//       resolves it),
//   (b) ARC2D filerx — a loop-invariant condition guards both the write and
//       the exposure of A(jmax),
//   (c) OCEAN — interprocedural implication between callee guards.
#include <cstdio>

#include "panorama/analysis/driver.h"
#include "panorama/corpus/corpus.h"
#include "panorama/frontend/parser.h"

using namespace panorama;

namespace {

void analyzeCase(const char* title, const char* source, const char* routine,
                 AnalysisOptions options = {}) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
  DiagnosticEngine diags;
  auto program = parseProgram(source, diags);
  if (!program) {
    std::fprintf(stderr, "parse error:\n%s", diags.str().c_str());
    return;
  }
  ThreadPool pool(1);
  ProgramAnalysis pa = analyzeProgramUnit(std::move(*program), options, pool);
  if (!pa.ok) {
    std::fprintf(stderr, "analysis error:\n%s", pa.error.c_str());
    return;
  }
  const Stmt* loop = findOuterLoop(pa.program, routine, 0);
  for (const LoopAnalysis& la : pa.loops)
    if (la.loop == loop) std::printf("%s\n", formatLoopAnalysis(la).c_str());
}

}  // namespace

int main() {
  analyzeCase("Figure 1(a) — MDG interf, base analysis (conservative on `a`)",
              fig1aSource(), "interf");
  AnalysisOptions quantified;
  quantified.quantified = true;
  analyzeCase("Figure 1(a) — with the quantified-guard extension (§5.2 future work)",
              fig1aSource(), "interf", quantified);
  analyzeCase("Figure 1(b) — ARC2D filerx (loop-invariant IF condition)", fig1bSource(),
              "filer");
  analyzeCase("Figure 1(c) — OCEAN (interprocedural guard implication)", fig1cSource(),
              "drive");

  std::printf("================================================================\n");
  std::printf("Ablations on Figure 1(c): what happens without each technique\n");
  std::printf("================================================================\n");
  AnalysisOptions noT3;
  noT3.interprocedural = false;
  analyzeCase("without interprocedural analysis (T3)", fig1cSource(), "drive", noT3);
  AnalysisOptions noT2;
  noT2.ifConditions = false;
  analyzeCase("without IF-condition analysis (T2)", fig1cSource(), "drive", noT2);
  return 0;
}
