// Reproduces Figure 5: the step-by-step GAR derivation that privatizes
// array A in the Figure 1(b) example — per-iteration MOD_i and UE_i,
// MOD_{<i}, and the empty intersection UE_i ∩ MOD_{<i} that proves
// privatizability.
#include "bench_util.h"
#include "harness.h"

using namespace panorama;
using namespace panorama::bench;

namespace {

BenchResult run() {
  BenchResult result;
  result.addConfig("kernel", "Figure 1(b) filer");

  std::printf("Figure 5: privatizing array A in the Figure 1(b) example\n\n");
  DiagnosticEngine diags;
  auto p = parseProgram(fig1bSource(), diags);
  if (!p) {
    result.fail("parse failed:\n" + diags.str());
    return result;
  }
  ThreadPool pool(1);
  ProgramAnalysis pa = analyzeProgramUnit(std::move(*p), {}, pool);
  if (!pa.ok) {
    result.fail("analysis failed:\n" + pa.error);
    return result;
  }

  const Procedure* filer = pa.program.findProcedure("filer");
  std::printf("-- source --------------------------------------------------------\n%s\n",
              toString(*filer).c_str());
  std::printf("-- HSG of filer (loop nodes carry their body subgraphs) ----------\n%s\n",
              pa.hsg.of(*filer).graph.str().c_str());

  const Stmt* loop = findOuterLoop(pa.program, "filer", 0);
  const LoopSummary* ls = pa.analyzer->loopSummary(loop);
  if (!ls) {
    result.fail("no loop summary for the filer I loop");
    return result;
  }

  const SymbolTable& tab = pa.sema.symbols;
  const ArrayTable& arrays = pa.sema.arrays;
  std::printf("-- A. per-iteration summaries of the I loop ----------------------\n");
  std::printf("MOD_i   = %s\n", ls->modIter.str(tab, arrays).c_str());
  std::printf("UE_i    = %s\n\n", ls->ueIter.str(tab, arrays).c_str());
  std::printf("(paper: mod_i = [T, (jlow:jup)] U [!p, (jmax)];\n");
  std::printf("        ue_i  = [p and (jmax < jlow or jmax > jup), (jmax)])\n\n");

  std::printf("-- B. is array A privatizable? -----------------------------------\n");
  std::printf("MOD_<i  = %s\n", ls->modBefore.str(tab, arrays).c_str());

  ConstraintSet cs;
  cs.addExprLE0(ls->bounds.lo - SymExpr::variable(ls->bounds.index));
  cs.addExprLE0(SymExpr::variable(ls->bounds.index) - ls->bounds.up);
  Truth empty = garIntersectionEmpty(ls->ueIter, ls->modBefore, CmpCtx{cs});
  std::printf("UE_i \xE2\x88\xA9 MOD_<i = %s\n",
              empty == Truth::True ? "EMPTY  ->  A is privatizable" : "not provably empty");

  for (const LoopAnalysis& la : pa.loops)
    if (la.loop == loop)
      std::printf("\n-- verdict --------------------------------------------------------\n%s\n",
                  formatLoopAnalysis(la).c_str());

  result.add("a_privatizable", empty == Truth::True ? 1 : 0, Direction::Exact);
  if (empty != Truth::True) result.fail("UE_i ∩ MOD_<i not provably empty");
  return result;
}

const Registration reg{{"fig5_trace", /*repetitions=*/1, /*warmup=*/0, run}};

}  // namespace
