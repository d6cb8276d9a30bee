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

/// One program's task graph. A procedure's summary task is spawned when
/// its last callee's summary is published (at once for a leaf), and its
/// loops' tasks when its own summary is: every reader of a memo slot is
/// spawned after the slot's one writer has finished.
class Schedule {
 public:
  /// `out` is resized to `loops` and filled by position.
  Schedule(SummaryAnalyzer& analyzer, const std::vector<LoopSite>& loops,
           std::vector<LoopAnalysis>& out)
      : analyzer_(analyzer), lp_(analyzer), loops_(loops), out_(out),
        procs_(analyzer.sema().bottomUpOrder.size()) {
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
    for (std::size_t k = 0; k < loops.size(); ++k) byProc.at(loops[k].proc)->loops.push_back(k);
    out_.resize(loops.size());
  }
  Schedule(const Schedule&) = delete;  // tasks hold its address
  Schedule& operator=(const Schedule&) = delete;

  /// Spawns the leaf procedures into `group`; the rest of the graph
  /// follows from the tasks themselves.
  void start(ThreadPool::Group& group) {
    for (Proc* p : leaves_) group.spawn([this, &group, p] { summarize(group, *p); });
  }

 private:
  struct Proc {
    const Procedure* proc = nullptr;
    std::atomic<std::size_t> pendingCallees{0};  ///< callees not yet summarized
    std::vector<Proc*> callers;
    std::vector<std::size_t> loops;  ///< positions in loops_
  };

  void summarize(ThreadPool::Group& group, Proc& p) {
    analyzer_.procSummary(*p.proc);
    for (Proc* caller : p.callers)
      if (caller->pendingCallees.fetch_sub(1, std::memory_order_acq_rel) == 1)
        group.spawn([this, &group, caller] { summarize(group, *caller); });
    for (std::size_t k : p.loops)
      group.spawn([this, k] { out_[k] = lp_.analyzeLoop(*loops_[k].loop, *loops_[k].proc); });
  }

  SummaryAnalyzer& analyzer_;
  LoopParallelizer lp_;
  const std::vector<LoopSite>& loops_;
  std::vector<LoopAnalysis>& out_;
  std::vector<Proc> procs_;  ///< bottom-up order; never resized (tasks point in)
  std::vector<Proc*> leaves_;
};

/// sema → HSG → analyzer over `pa.program`, and the sites of every DO loop
/// (procedures bottom-up, loops in collectDoLoops order). False, with
/// pa.error set, on a diagnostic.
bool prepare(ProgramAnalysis& pa, const AnalysisOptions& options, std::vector<LoopSite>& sites) {
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
  for (const Procedure* proc : pa.sema.bottomUpOrder)
    for (const Stmt* loop : collectDoLoops(proc->body)) sites.push_back({loop, proc});
  return true;
}

/// One corpus kernel: its ProgramAnalysis, built in place, and the task
/// graph that fills it.
struct KernelJob {
  const CorpusLoop* cl = nullptr;
  ProgramAnalysis pa;
  std::vector<LoopSite> sites;
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
  if (!prepare(job.pa, options, job.sites)) return;
  job.pa.ok = true;
  job.schedule.emplace(*job.pa.analyzer, job.sites, job.pa.loops);
  job.schedule->start(group);
}

}  // namespace

std::vector<LoopAnalysis> analyzeProgramParallel(SummaryAnalyzer& analyzer, ThreadPool& pool,
                                                 const std::vector<LoopSite>& loops) {
  std::vector<LoopAnalysis> out;
  Schedule schedule(analyzer, loops, out);
  ThreadPool::Group group(pool);
  schedule.start(group);
  group.wait();
  return out;
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
  std::vector<LoopSite> sites;
  if (!prepare(out, options, sites)) return out;
  out.loops = analyzeProgramParallel(*out.analyzer, pool, sites);
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
