// A "compiler report" over the full Perfect corpus: every loop of every
// kernel, its classification, the privatized arrays, and — echoing §6's
// methodology — whether the cheap conventional dependence tests would have
// sufficed (the paper applies the expensive dataflow analysis only when
// they do not).
#include <cstdio>

#include "panorama/analysis/driver.h"
#include "panorama/corpus/corpus.h"
#include "panorama/deptest/deptest.h"
#include "panorama/frontend/parser.h"

using namespace panorama;

int main() {
  int total = 0;
  int parallel = 0;
  int viaPrivatization = 0;
  int conventionalEnough = 0;

  ThreadPool pool(1);
  for (const CorpusLoop& cl : perfectCorpus()) {
    std::printf("================ %s ================\n", cl.id.c_str());
    DiagnosticEngine diags;
    auto program = parseProgram(cl.source, diags);
    ProgramAnalysis pa = analyzeProgramUnit(std::move(*program), {}, pool);
    if (!pa.ok) {
      std::fprintf(stderr, "%s: %s\n", cl.id.c_str(), pa.error.c_str());
      continue;
    }
    ConventionalAnalyzer conventional(pa.program, pa.sema);
    auto verdicts = conventional.classifyProgram();
    for (const LoopAnalysis& la : pa.loops) {
      ++total;
      bool convParallel = false;
      for (const auto& [stmt, verdict] : verdicts)
        if (stmt == la.loop) convParallel = verdict.parallel;
      if (convParallel) {
        // §6: conventional tests settle it — the GAR analysis is not needed.
        ++conventionalEnough;
        ++parallel;
        std::printf("%s: DO %s (line %d): parallel [conventional tests suffice]\n",
                    la.procName.c_str(), la.loop->doVar.c_str(), la.line);
        continue;
      }
      std::printf("%s", formatLoopAnalysis(la).c_str());
      parallel += la.classification != LoopClass::Serial;
      viaPrivatization += la.classification == LoopClass::ParallelAfterPrivatization;
    }
    std::printf("\n");
  }

  std::printf("================ summary ================\n");
  std::printf("loops analyzed:                  %d\n", total);
  std::printf("parallel by conventional tests:  %d\n", conventionalEnough);
  std::printf("parallel overall:                %d\n", parallel);
  std::printf("needed array privatization:      %d\n", viaPrivatization);
  return 0;
}
