// The analysis scheduler: one dependency-counted task graph per program on
// a thread pool's task group. A procedure's task is spawned when the last
// of its callees (sema's call edges, ProcSymbols::callees) has published
// its summary: it runs the caller's per-procedure plan, which fills the
// procedure's memo slot and names the loops to analyze, and then spawns
// those loops' tasks and its ready callers. No task waits for another; only
// the callers below block. Batch runs (analyzeProgramUnit,
// analyzeCorpusParallel) pass a plan that summarizes the procedure and
// returns every loop; incremental sessions (AnalysisSession::submit) pass
// one that decides, once the callees' summary epochs are final, whether the
// procedure's carried state is still valid and which loops changed. A
// 1-thread pool runs the same graph on the calling thread.
//
// Correctness model (see DESIGN.md §4.1):
//   * A memo slot's one writer, the task planning its procedure, finishes
//     before any task that reads the slot is spawned: its callers' tasks
//     and its own loop tasks.
//   * Per-loop analyses (LoopParallelizer::analyzeLoop) only read the
//     analyzer, so they run concurrently with unrelated summaries.
//   * Symbolic query verdicts are memoized in the process-global QueryCache
//     under exact structural keys, so results are identical at every pool
//     size and under any completion order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "panorama/analysis/analysis.h"
#include "panorama/obs/metrics.h"
#include "panorama/support/memo_cache.h"
#include "panorama/support/thread_pool.h"

namespace panorama {

/// One procedure's step of the task graph, run by the task that is the
/// procedure's memo slot's one writer once every callee's plan has
/// finished: fill the slot (summarize the procedure, or seed it) and return
/// the DO loops of the procedure to analyze, in the order their analyses
/// are returned. A plan may read its callees' slots and whatever their
/// plans published, and nothing else that another task writes.
using ProcPlan = std::function<std::vector<const Stmt*>(const Procedure&)>;

/// The batch plan: summarize the procedure and analyze every DO loop of it,
/// in collectDoLoops order.
ProcPlan summarizeEveryLoop(SummaryAnalyzer& analyzer);

/// The one analysis scheduler: runs `plan` for every procedure of the
/// analyzer's program, callees first, on `pool`, and analyzes each loop a
/// plan returns once that plan is done. The result holds those analyses,
/// procedures in bottom-up order and each procedure's loops in its plan's
/// order, regardless of pool size or completion order.
std::vector<LoopAnalysis> analyzeProgramParallel(SummaryAnalyzer& analyzer, ThreadPool& pool,
                                                 const ProcPlan& plan);

/// Everything one analyzed program owns. The analyzer points into
/// program/sema/hsg, so the four live (and die) together; the move
/// operations re-point it at the moved-to members. `loops` holds every DO
/// loop, procedures in bottom-up order and loops in collectDoLoops order.
struct ProgramAnalysis {
  ProgramAnalysis() = default;
  ProgramAnalysis(ProgramAnalysis&& other) { *this = std::move(other); }
  ProgramAnalysis& operator=(ProgramAnalysis&& other);

  Program program;
  SemaResult sema;
  Hsg hsg;
  std::unique_ptr<SummaryAnalyzer> analyzer;
  std::vector<LoopAnalysis> loops;
  bool ok = false;
  std::string error;  ///< sema/HSG diagnostics when !ok
};

/// Frontend-neutral batch entry point: analyzes a pre-sema `Program` from
/// any producer — the F77 parser, the C-like frontend, or a ProgramBuilder —
/// through sema → HSG → analyzeProgramParallel on `pool`. The corpus driver,
/// the single-file driver, and the second frontend all converge here; only
/// the text-to-Program step differs.
ProgramAnalysis analyzeProgramUnit(Program program, const AnalysisOptions& options,
                                   ThreadPool& pool);

/// How corpus kernels become Programs.
enum class CorpusIngest : std::uint8_t {
  Parse,             ///< F77 parser, directly
  BuilderRoundTrip,  ///< parse → builder::rebuild() → analyze (validation replay)
};

/// One analyzed loop of one corpus kernel.
struct CorpusRoutineResult {
  std::string kernelId;   ///< CorpusLoop::id, e.g. "TRACK nlfilt/300"
  std::string procName;   ///< procedure containing the loop
  int line = 0;           ///< source line of the DO statement
  LoopClass classification = LoopClass::Serial;
  std::string report;      ///< formatLoopAnalysis rendering
  std::string provenance;  ///< formatProvenance rendering (--explain)
  std::string provenanceSummary;  ///< one-line decision digest
  std::size_t provenanceEvidenceCount = 0;
};

/// Corpus-wide run: per-loop verdicts plus the cost/cache counters the
/// report layer and the parallel-driver bench surface.
struct CorpusAnalysisResult {
  std::vector<CorpusRoutineResult> loops;
  SummaryStats summaryStats;        ///< summed over every kernel's analyzer
  QueryCache::Stats cacheStats;     ///< verdict-cache counters for the run
  QueryCache::Stats simplifyStats;  ///< Pred::simplify memo counters
  std::size_t threadsUsed = 1;
};

/// Parses and analyzes every Table 1/2 corpus kernel under `options` on one
/// pool sized by options.numThreads: each kernel's frontend task spawns its
/// leaf procedures into the run's one task group. The verdict cache and the
/// simplify memo are cleared first, so the result's counters cover this run
/// only. Kernel and loop order in the result is fixed (corpus order, then
/// ProgramAnalysis::loops order) regardless of thread count. Quantified
/// runs parallelize like any other: each analyzer carries its own ψ binding
/// (PsiDims in CmpCtx), so kernels never share mutable symbolic state.
/// `ingest` selects the direct parser path or the builder round-trip replay
/// (bench_ingest, and test_builder's corpus round-trip test); both must
/// produce identical loop reports and provenance.
CorpusAnalysisResult analyzeCorpusParallel(const AnalysisOptions& options = {},
                                           CorpusIngest ingest = CorpusIngest::Parse);

/// Publishes every counter of a corpus run — classifications, summary cost,
/// query-cache and simplify-memo counters, provenance volume — into the
/// metrics registry under stable names ("corpus.*", "summary.*",
/// "query_cache.*", "simplify_memo.*"). The registry is the single source
/// the text renderer below and the --metrics JSON dump both read.
void publishCorpusMetrics(const CorpusAnalysisResult& result, obs::MetricsRegistry& registry);

/// One-paragraph rendering of a corpus run: loop classifications, summary
/// cost counters, and the query-cache hit/miss line. Registry-driven: the
/// counters are published through publishCorpusMetrics and rendered by the
/// shared obs renderers (output is byte-compatible with the historical
/// hand-formatted blocks; obs_test golden-tests it).
std::string formatCorpusStats(const CorpusAnalysisResult& result);

}  // namespace panorama
