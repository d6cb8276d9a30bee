// Quickstart: feed a small Fortran subroutine through the whole pipeline —
// parse, semantic analysis, HSG, GAR summaries, privatization — and print
// what the analyzer concluded.
//
// Build & run:   cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "panorama/analysis/driver.h"
#include "panorama/frontend/parser.h"

using namespace panorama;

int main() {
  // The classic privatization pattern: `work` is a scratch array rewritten
  // by every iteration of the outer loop before being consumed.
  const char* source = R"(
      subroutine smooth(field, work, n, m)
      real field(100, 100), work(100)
      integer n, m
      do i = 1, n
        do j = 1, m
          work(j) = field(j, i) * 0.25
        enddo
        do j = 1, m
          field(j, i) = work(j) + field(j, i)
        enddo
      enddo
      end
  )";

  DiagnosticEngine diags;
  auto program = parseProgram(source, diags);
  if (!program) {
    std::fprintf(stderr, "parse error:\n%s", diags.str().c_str());
    return 1;
  }
  // Sema, HSG, GAR summaries and per-loop privatization, on one thread.
  ThreadPool pool(1);
  ProgramAnalysis pa = analyzeProgramUnit(std::move(*program), AnalysisOptions{}, pool);
  if (!pa.ok) {
    std::fprintf(stderr, "analysis error:\n%s", pa.error.c_str());
    return 1;
  }

  std::printf("Analysis of subroutine `smooth`\n");
  std::printf("===============================\n\n");
  for (const LoopAnalysis& la : pa.loops)
    std::printf("%s\n", formatLoopAnalysis(la).c_str());

  // The per-loop symbolic summaries are available too:
  const SemaResult& sema = pa.sema;
  const Procedure* proc = pa.program.findProcedure("smooth");
  for (const StmtPtr& s : proc->body) {
    if (s->kind != Stmt::Kind::Do) continue;
    const LoopSummary* ls = pa.analyzer->loopSummary(s.get());
    std::printf("Per-iteration summaries of the outer loop:\n");
    std::printf("  MOD_i  = %s\n", ls->modIter.str(sema.symbols, sema.arrays).c_str());
    std::printf("  UE_i   = %s\n", ls->ueIter.str(sema.symbols, sema.arrays).c_str());
    std::printf("  MOD_<i = %s\n", ls->modBefore.str(sema.symbols, sema.arrays).c_str());
  }
  return 0;
}
