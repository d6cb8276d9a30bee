// The parallel analysis driver (see driver.h for the correctness model).
#include "panorama/analysis/driver.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "panorama/builder/builder.h"
#include "panorama/corpus/corpus.h"
#include "panorama/frontend/parser.h"
#include "panorama/hsg/hsg.h"
#include "panorama/obs/trace.h"

namespace panorama {

namespace {

/// One program's task graph. A procedure's task is spawned when its last
/// callee's plan has finished (at once for a leaf), and its loops' tasks
/// when its own plan has: every reader of a memo slot is spawned after the
/// slot's one writer has finished.
class Schedule {
 public:
  Schedule(SummaryAnalyzer& analyzer, ProcPlan plan)
      : lp_(analyzer), plan_(std::move(plan)), procs_(analyzer.sema().bottomUpOrder.size()) {
    const SemaResult& sema = analyzer.sema();
    std::unordered_map<const Procedure*, Proc*> byProc;
    for (std::size_t k = 0; k < procs_.size(); ++k) {
      procs_[k].proc = sema.bottomUpOrder[k];
      byProc.emplace(procs_[k].proc, &procs_[k]);
    }
    for (Proc& p : procs_) {
      const std::vector<const Procedure*>& callees = sema.of(*p.proc).callees;
      p.pendingCallees.store(callees.size(), std::memory_order_relaxed);
      if (callees.empty()) leaves_.push_back(&p);
      for (const Procedure* callee : callees) byProc.at(callee)->callers.push_back(&p);
    }
  }
  Schedule(const Schedule&) = delete;  // tasks hold its address
  Schedule& operator=(const Schedule&) = delete;

  /// Spawns the leaf procedures into `group`; the rest of the graph
  /// follows from the tasks themselves.
  void start(ThreadPool::Group& group) {
    for (Proc* p : leaves_) group.spawn([this, &group, p] { summarize(group, *p); });
  }

  /// The loop analyses, procedures in bottom-up order; call once the
  /// group has finished.
  std::vector<LoopAnalysis> take() {
    std::vector<LoopAnalysis> out;
    for (Proc& p : procs_)
      for (LoopAnalysis& la : p.analyses) out.push_back(std::move(la));
    return out;
  }

 private:
  struct Proc {
    const Procedure* proc = nullptr;
    std::atomic<std::size_t> pendingCallees{0};  ///< callees whose plan has not finished
    std::vector<Proc*> callers;
    std::vector<const Stmt*> loops;  ///< what the plan returned
    std::vector<LoopAnalysis> analyses;  ///< by position in `loops`
  };

  void summarize(ThreadPool::Group& group, Proc& p) {
    p.loops = plan_(*p.proc);
    p.analyses.resize(p.loops.size());
    for (Proc* caller : p.callers)
      if (caller->pendingCallees.fetch_sub(1, std::memory_order_acq_rel) == 1)
        group.spawn([this, &group, caller] { summarize(group, *caller); });
    for (std::size_t k = 0; k < p.loops.size(); ++k)
      group.spawn([this, &p, k] { p.analyses[k] = lp_.analyzeLoop(*p.loops[k], *p.proc); });
  }

  LoopParallelizer lp_;
  ProcPlan plan_;
  std::vector<Proc> procs_;  ///< bottom-up order; never resized (tasks point in)
  std::vector<Proc*> leaves_;
};

/// sema → HSG → analyzer over `pa.program`. False, with pa.error set, on a
/// diagnostic.
bool prepare(ProgramAnalysis& pa, const AnalysisOptions& options) {
  DiagnosticEngine diags;
  auto sr = [&] {
    obs::Span s("frontend.sema", "program unit");
    return analyze(pa.program, diags);
  }();
  if (!sr) {
    pa.error = diags.str();
    return false;
  }
  pa.sema = std::move(*sr);
  {
    obs::Span s("frontend.hsg", "program unit");
    pa.hsg = buildHsg(pa.program, diags);
  }
  if (diags.hasErrors()) {
    pa.error = diags.str();
    return false;
  }
  pa.analyzer = std::make_unique<SummaryAnalyzer>(pa.program, pa.sema, pa.hsg, options);
  return true;
}

/// One corpus kernel: its ProgramAnalysis, built in place, and the task
/// graph that fills it.
struct KernelJob {
  const CorpusLoop* cl = nullptr;
  ProgramAnalysis pa;
  std::optional<Schedule> schedule;
};

void runKernel(KernelJob& job, const AnalysisOptions& options, ThreadPool::Group& group,
               CorpusIngest ingest) {
  obs::Span span("corpus.kernel", job.cl->id);
  DiagnosticEngine diags;
  auto parsed = [&] {
    obs::Span s("frontend.parse", job.cl->id);
    return parseProgram(job.cl->source, diags);
  }();
  if (!parsed) return;
  job.pa.program = std::move(*parsed);
  if (ingest == CorpusIngest::BuilderRoundTrip) {
    obs::Span s("frontend.rebuild", job.cl->id);
    builder::BuildResult rebuilt = builder::rebuild(job.pa.program);
    if (!rebuilt.ok()) {
      job.pa.error = rebuilt.error();
      return;
    }
    job.pa.program = std::move(*rebuilt.program);
  }
  if (!prepare(job.pa, options)) return;
  job.pa.ok = true;
  job.schedule.emplace(*job.pa.analyzer, summarizeEveryLoop(*job.pa.analyzer));
  job.schedule->start(group);
}

}  // namespace

ProcPlan summarizeEveryLoop(SummaryAnalyzer& analyzer) {
  return [&analyzer](const Procedure& proc) {
    analyzer.procSummary(proc);
    return collectDoLoops(proc.body);
  };
}

std::vector<LoopAnalysis> analyzeProgramParallel(SummaryAnalyzer& analyzer, ThreadPool& pool,
                                                 const ProcPlan& plan) {
  Schedule schedule(analyzer, plan);
  ThreadPool::Group group(pool);
  schedule.start(group);
  group.wait();
  return schedule.take();
}

ProgramAnalysis& ProgramAnalysis::operator=(ProgramAnalysis&& other) {
  program = std::move(other.program);
  sema = std::move(other.sema);
  hsg = std::move(other.hsg);
  analyzer = std::move(other.analyzer);
  loops = std::move(other.loops);
  ok = other.ok;
  error = std::move(other.error);
  if (analyzer) analyzer->rebind(program, sema, hsg);
  return *this;
}

ProgramAnalysis analyzeProgramUnit(Program program, const AnalysisOptions& options,
                                   ThreadPool& pool) {
  ProgramAnalysis out;
  out.program = std::move(program);
  if (!prepare(out, options)) return out;
  out.loops = analyzeProgramParallel(*out.analyzer, pool, summarizeEveryLoop(*out.analyzer));
  out.ok = true;
  return out;
}

CorpusAnalysisResult analyzeCorpusParallel(const AnalysisOptions& options, CorpusIngest ingest) {
  obs::Span span("corpus.run", "perfect corpus");
  // Fresh counters per run. The FM elimination cache is deliberately NOT
  // cleared: its verdicts are pure functions of (system, budget), so
  // entries from earlier runs in the same process are always reusable.
  // Tests and benches call clearFmEliminationCache() when they need a cold
  // run.
  QueryCache::global().clear();
  clearSimplifyMemo();
  ThreadPool pool(options.numThreads);

  const std::vector<CorpusLoop>& corpus = perfectCorpus();
  std::vector<KernelJob> jobs(corpus.size());
  for (std::size_t k = 0; k < corpus.size(); ++k) jobs[k].cl = &corpus[k];

  // Quantified kernels need no special casing: every analyzer carries its
  // own ψ binding (PsiDims threaded through CmpCtx), so kernels overlap
  // freely regardless of options.
  {
    ThreadPool::Group group(pool);
    for (KernelJob& job : jobs)
      group.spawn([&job, &options, &group, ingest] { runKernel(job, options, group, ingest); });
    group.wait();
  }
  for (KernelJob& job : jobs)
    if (job.schedule) job.pa.loops = job.schedule->take();

  CorpusAnalysisResult result;
  result.threadsUsed = pool.threadCount();
  for (const KernelJob& kj : jobs) {
    const ProgramAnalysis& job = kj.pa;
    if (!job.ok) continue;
    SummaryStats s = job.analyzer->stats();
    result.summaryStats.blockSteps += s.blockSteps;
    result.summaryStats.loopExpansions += s.loopExpansions;
    result.summaryStats.callMappings += s.callMappings;
    result.summaryStats.peakListLength =
        std::max(result.summaryStats.peakListLength, s.peakListLength);
    result.summaryStats.garsCreated += s.garsCreated;
    for (const LoopAnalysis& la : job.loops) {
      CorpusRoutineResult r;
      r.kernelId = kj.cl->id;
      r.procName = la.procName;
      r.line = la.line;
      r.classification = la.classification;
      r.report = formatLoopAnalysis(la);
      r.provenance = formatProvenance(la);
      r.provenanceSummary = panorama::provenanceSummary(la);
      r.provenanceEvidenceCount = la.provenance.evidence.size();
      result.loops.push_back(std::move(r));
    }
  }
  result.cacheStats = QueryCache::global().stats();
  result.simplifyStats = simplifyMemoStats();
  return result;
}

}  // namespace panorama
