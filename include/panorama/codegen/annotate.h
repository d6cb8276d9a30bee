// Parallel source emission — the step the paper left as "work underway for
// Silicon Graphics power challenges" (§6): re-emit the analyzed program with
// parallelization directives on every loop the analysis proved parallel,
// carrying the privatization decisions as PRIVATE / LASTPRIVATE clauses.
//
// Directives use the OpenMP spelling (`c$omp parallel do`), the modern
// descendant of the era's `c$doacross`; a comment-style prefix keeps the
// output valid input for any Fortran compiler — and for this repository's
// own frontend (directives lex as comments), which the tests exploit for
// round-trip checks.
#pragma once

#include <string>
#include <vector>

#include "panorama/analysis/analysis.h"

namespace panorama {

/// Re-emits `program` with a directive above every loop in `loops` whose
/// classification is not Serial and that no other annotated loop encloses
/// (no nested parallel regions). Privatizable arrays become PRIVATE(...)
/// (or LASTPRIVATE(...) when the copy-out analysis demands the final
/// values); iteration-private scalars join the PRIVATE list.
std::string emitParallelSource(const Program& program, const std::vector<LoopAnalysis>& loops);

/// The directive for one loop ("" when the loop stays serial).
std::string directiveFor(const LoopAnalysis& loop);

}  // namespace panorama
