// corpus_cold: one caller; every op forks a child that has never analyzed
// anything, parses one corpus program and runs analyzeProgramUnit on one
// thread through to the formatted loop reports.
#include <sys/resource.h>

#include <stdexcept>

#include "bench.h"
#include "panorama/analysis/driver.h"
#include "panorama/deptest/deptest.h"
#include "panorama/frontend/parser.h"
#include "panorama/obs/metrics.h"
#include "panorama/obs/trace.h"
#include "panorama/predicate/arena.h"
#include "panorama/predicate/fm_incremental.h"
#include "panorama/symbolic/arena.h"

namespace perfbench {

using namespace panorama;

namespace {

/// Ops between two calibrations of the timed phase.
constexpr std::size_t kCalibrateEvery = 25;

std::string formatReports(const ProgramAnalysis& pa) {
  std::string report;
  for (const LoopAnalysis& la : pa.loops) {
    report += formatLoopAnalysis(la);
    report += '\n';
  }
  return report;
}

}  // namespace

std::string coldReport(const std::string& text,
                       const std::function<void(const ProgramAnalysis&)>& inspect) {
  DiagnosticEngine diags;
  auto program = parseProgram(text, diags);
  if (!program) throw std::runtime_error("parse failed:\n" + diags.str());
  ThreadPool pool(1);
  AnalysisOptions options;
  options.numThreads = 1;
  ProgramAnalysis pa = analyzeProgramUnit(std::move(*program), options, pool);
  if (!pa.ok) throw std::runtime_error("analysis failed:\n" + pa.error);
  std::string report = formatReports(pa);
  if (inspect) inspect(pa);
  return report;
}

namespace {

/// The body of one op child: the timed span runs from the parse to the last
/// formatted report. A traced op then runs the conventional dependence tests
/// (`deptest`, which `analyzeProgramUnit` does not call) on the same program,
/// outside the timed span and after the counts are read, so the traced run
/// reports that layer without changing the op it measures.
std::string corpusOp(const std::string& text, bool traced) {
  if (traced) obs::Tracer::global().enable();
  OpRecord rec;
  ThreadPool pool(1);
  AnalysisOptions options;
  options.numThreads = 1;
  DiagnosticEngine diags;
  const double cpu0 = processCpuNs();
  const double t0 = nowNs();
  auto program = parseProgram(text, diags);
  const double t1 = nowNs();
  ProgramAnalysis pa;
  if (program) pa = analyzeProgramUnit(std::move(*program), options, pool);
  const double t2 = nowNs();
  const std::string report = formatReports(pa);
  const double t3 = nowNs();
  rec.cpuNs = processCpuNs() - cpu0;
  rec.startNs = t0;
  rec.wallNs = t3 - t0;
  rec.ok = program && pa.ok;
  if (pa.analyzer) {
    const SummaryStats st = pa.analyzer->stats();
    rec.work[0] = st.garsCreated;
    rec.work[1] = st.peakListLength;
    rec.work[2] = st.loopExpansions;
    rec.work[3] = st.blockSteps;
    rec.work[4] = st.callMappings;
  }
  rec.work[5] = pa.loops.size();
  const QueryCache::Stats memo = simplifyMemoStats();
  const FmCacheStats fm = fmEliminationStats();
  const QueryCache::Stats qc = QueryCache::global().stats();
  auto& registry = obs::MetricsRegistry::global();
  rec.aux[kSimplifyHits] = memo.hits;
  rec.aux[kSimplifyMisses] = memo.misses;
  rec.aux[kFmHits] = fm.hits;
  rec.aux[kFmMisses] = fm.misses;
  rec.aux[kPrefilterAttempts] = registry.counterValue("query.prefilter.attempts").value_or(0);
  rec.aux[kPrefilterHits] = registry.counterValue("query.prefilter.hits").value_or(0);
  rec.aux[kQcHits] = qc.hits;
  rec.aux[kQcMisses] = qc.misses;
  rec.aux[kExprDistinct] = ExprArena::global().stats().distinct;
  rec.aux[kExprBytes] = ExprArena::global().stats().bytes;
  rec.aux[kPredDistinct] = PredArena::global().stats().distinct;
  if (traced) {
    rec.layerNs[kParse] = t1 - t0;
    rec.layerNs[kUnit] = t2 - t1;
    if (pa.ok) ConventionalAnalyzer(pa.program, pa.sema).classifyProgram();
    foldLibraryTrace(rec.layerNs);
  }
  rec.reportHash = hashBytes(report);
  rec.reportBytes = report.size();
  WireOut w;
  w.raw(&rec, sizeof rec);
  w.str(report);
  return std::move(w.buffer());
}

}  // namespace

PassResult runCorpusCold(std::uint64_t seed, int seconds, const PassConfig& cfg) {
  PassResult r;
  SetupTimer setup;
  const Inputs in = buildInputs(Workload::CorpusCold, seed, seconds);
  // Warm-up: one child parses and analyzes every corpus program once, so
  // the code and the inputs are resident before the first timed op.
  ChildResult warm = runInChild([&] {
    for (std::uint32_t p = 0; p < in.programs.size(); ++p) coldReport(in.programs[p].base);
    return std::string();
  });
  setup.finish(r);
  if (!warm.ok) {
    r.ok = false;
    r.error = "corpus_cold warm-up: " + warm.error;
    return r;
  }
  if (cfg.setupOnly) return r;

  BenchTrace trace;
  r.calibrations.push_back(calibrationWindow());
  for (std::size_t i = 0; i < in.script.size(); ++i) {
    if (i > 0 && i % kCalibrateEvery == 0) r.calibrations.push_back(calibrationWindow());
    const ScriptOp& op = in.script[i];
    const std::string& text = in.texts.text(op.textId);
    ChildResult child = runInChild([&] { return corpusOp(text, cfg.traced); });
    OpRecord rec;
    std::string report;
    if (child.ok) {
      WireIn w(child.payload);
      w.raw(&rec, sizeof rec);
      report = w.str();
    } else {
      rec.ok = 0;
    }
    rec.kind = op.kind;
    rec.program = op.program;
    rec.textId = op.textId;
    rec.rssKb = static_cast<double>(child.usage.ru_maxrss);
    if (cfg.traced && child.ok) {
      trace.add(i, "parseProgram", rec.startNs, rec.layerNs[kParse], 0);
      trace.add(i, "analyzeProgramUnit", rec.startNs + rec.layerNs[kParse], rec.layerNs[kUnit], 0);
    }
    if (rec.ok) r.reports.try_emplace(op.textId, std::move(report));
    r.ops.push_back(rec);
  }
  r.calibrations.push_back(calibrationWindow());
  if (cfg.traced && !cfg.tracePath.empty()) trace.write(cfg.tracePath);
  return r;
}

}  // namespace perfbench
