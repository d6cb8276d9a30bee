// The parallel analysis driver (see driver.h for the correctness model).
#include "panorama/analysis/driver.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "panorama/builder/builder.h"
#include "panorama/corpus/corpus.h"
#include "panorama/frontend/parser.h"
#include "panorama/hsg/hsg.h"
#include "panorama/obs/trace.h"

namespace panorama {

std::vector<std::vector<const Procedure*>> callGraphWaves(const SemaResult& sema) {
  // Procedures keyed by name for callee resolution; the graph is acyclic
  // (sema rejects recursion), so the longest-callee-chain depth is well
  // defined and bottomUpOrder already lists callees before callers.
  std::map<std::string, const Procedure*> byName;
  for (const Procedure* p : sema.bottomUpOrder) byName.emplace(p->name, p);

  std::map<const Procedure*, std::size_t> depth;
  std::size_t maxDepth = 0;
  for (const Procedure* p : sema.bottomUpOrder) {
    std::size_t d = 0;
    std::function<void(const std::vector<StmtPtr>&)> walk =
        [&](const std::vector<StmtPtr>& body) {
          for (const StmtPtr& s : body) {
            if (s->kind == Stmt::Kind::Call) {
              auto callee = byName.find(s->callee);
              if (callee != byName.end()) {
                auto it = depth.find(callee->second);
                // Calls resolve into earlier bottomUpOrder entries only.
                if (it != depth.end()) d = std::max(d, it->second + 1);
              }
            }
            walk(s->thenBody);
            walk(s->elseBody);
            walk(s->body);
          }
        };
    walk(p->body);
    depth.emplace(p, d);
    maxDepth = std::max(maxDepth, d);
  }

  std::vector<std::vector<const Procedure*>> waves(maxDepth + 1);
  for (const Procedure* p : sema.bottomUpOrder) waves[depth.at(p)].push_back(p);
  return waves;
}

std::vector<LoopAnalysis> analyzeProgramParallel(SummaryAnalyzer& analyzer, ThreadPool& pool,
                                                 const std::vector<LoopSite>& loops) {
  // Wave k's procedures only call procedures summarized in earlier waves:
  // each task writes only its own procedure's memo slot, and reads callee
  // slots filled before the previous batch's barrier.
  std::size_t waveIndex = 0;
  for (const auto& wave : callGraphWaves(analyzer.sema())) {
    obs::Span waveSpan("summary.wave", "wave " + std::to_string(waveIndex++));
    if (waveSpan.active()) waveSpan.arg("procedures", std::to_string(wave.size()));
    std::vector<std::function<void()>> tasks;
    tasks.reserve(wave.size());
    for (const Procedure* p : wave)
      tasks.push_back([&analyzer, p] { analyzer.procSummary(*p); });
    pool.runBatch(std::move(tasks));
  }

  // Results are written by index, so their order is the caller's.
  LoopParallelizer lp(analyzer);
  std::vector<LoopAnalysis> out(loops.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(loops.size());
  for (std::size_t k = 0; k < loops.size(); ++k)
    tasks.push_back(
        [&lp, &out, &loops, k] { out[k] = lp.analyzeLoop(*loops[k].loop, *loops[k].proc); });
  pool.runBatch(std::move(tasks));
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
  DiagnosticEngine diags;
  auto sr = [&] {
    obs::Span s("frontend.sema", "program unit");
    return analyze(out.program, diags);
  }();
  if (!sr) {
    out.error = diags.str();
    return out;
  }
  out.sema = std::move(*sr);
  {
    obs::Span s("frontend.hsg", "program unit");
    out.hsg = buildHsg(out.program, diags);
  }
  if (diags.hasErrors()) {
    out.error = diags.str();
    return out;
  }
  out.analyzer = std::make_unique<SummaryAnalyzer>(out.program, out.sema, out.hsg, options);
  std::vector<LoopSite> loops;
  for (const Procedure* proc : out.sema.bottomUpOrder)
    for (const Stmt* loop : collectDoLoops(proc->body)) loops.push_back({loop, proc});
  out.loops = analyzeProgramParallel(*out.analyzer, pool, loops);
  out.ok = true;
  return out;
}

namespace {

/// One corpus kernel's text-to-Program step plus its ProgramAnalysis.
struct KernelJob {
  const CorpusLoop* cl = nullptr;
  ProgramAnalysis pa;
};

void runKernel(KernelJob& job, const AnalysisOptions& options, ThreadPool& pool,
               CorpusIngest ingest) {
  obs::Span span("corpus.kernel", job.cl->id);
  DiagnosticEngine diags;
  auto parsed = [&] {
    obs::Span s("frontend.parse", job.cl->id);
    return parseProgram(job.cl->source, diags);
  }();
  if (!parsed) return;
  Program program = std::move(*parsed);
  if (ingest == CorpusIngest::BuilderRoundTrip) {
    obs::Span s("frontend.rebuild", job.cl->id);
    builder::BuildResult rebuilt = builder::rebuild(program);
    if (!rebuilt.ok()) {
      job.pa.error = rebuilt.error();
      return;
    }
    program = std::move(*rebuilt.program);
  }
  job.pa = analyzeProgramUnit(std::move(program), options, pool);
}

}  // namespace

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
  std::vector<std::function<void()>> tasks;
  tasks.reserve(jobs.size());
  for (KernelJob& job : jobs)
    tasks.push_back([&job, &options, &pool, ingest] { runKernel(job, options, pool, ingest); });
  pool.runBatch(std::move(tasks));

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
