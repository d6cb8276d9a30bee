// The report layer: per-loop text reports, decision-provenance rendering
// (--explain), and the corpus-wide stats block — the latter driven by the
// obs metrics registry so the counters exist exactly once and every
// renderer (this file, panorama_driver --stats, the --metrics JSON dump)
// reads the same source of truth.
#include <sstream>

#include "panorama/analysis/analysis.h"
#include "panorama/analysis/driver.h"
#include "panorama/obs/metrics.h"
#include "panorama/predicate/fm_incremental.h"

namespace panorama {

std::string formatLoopAnalysis(const LoopAnalysis& la) {
  std::ostringstream os;
  const char* var = la.loop ? la.loop->doVar.c_str() : "?";
  os << la.procName << ": DO " << var << " (line " << la.line << "): "
     << toString(la.classification);
  if (la.classification == LoopClass::Serial && !la.serialReason.empty())
    os << " — " << la.serialReason;
  os << '\n';
  for (const ArrayPrivatization& ap : la.arrays) {
    os << "    array " << ap.name << ": ";
    if (!ap.written)
      os << "read-only";
    else if (ap.privatizable)
      os << "privatizable" << (ap.needsCopyOut ? " (copy-out last value)" : "");
    else if (ap.candidate)
      os << "candidate, NOT privatizable (" << ap.reason << ")";
    else
      os << ap.reason;
    os << '\n';
  }
  for (const ScalarInfo& si : la.scalars) {
    if (si.reduction)
      os << "    scalar " << si.name << ": reduction (" << si.reductionOp << ")\n";
    else if (!si.privatizable)
      os << "    scalar " << si.name << ": exposed across iterations\n";
  }
  return os.str();
}

std::string formatProvenance(const LoopAnalysis& la) {
  std::ostringstream os;
  for (const obs::Evidence& e : la.provenance.evidence) {
    os << "    why [" << toString(e.kind) << "]";
    if (!e.subject.empty()) os << " " << e.subject;
    os << " -> " << toString(e.verdict);
    if (!e.detail.empty()) os << ": " << e.detail;
    os << '\n';
  }
  for (const obs::SymbolicNote& n : la.provenance.notes) {
    os << "    why (symbolic, best-effort) [" << n.source << "] during " << n.scope << ": "
       << n.detail << '\n';
  }
  return os.str();
}

std::string provenanceSummary(const LoopAnalysis& la) {
  std::ostringstream os;
  os << toString(la.classification);
  if (la.classification != LoopClass::Serial) {
    // Name the arrays whose privatization the verdict rests on.
    bool any = false;
    for (const ArrayPrivatization& ap : la.arrays) {
      if (!ap.privatizable) continue;
      os << (any ? "" : " [privatized:") << " " << ap.name;
      any = true;
    }
    if (any) os << "]";
    return os.str();
  }
  os << ":";
  bool decisive = false;
  for (const obs::Evidence& e : la.provenance.evidence) {
    switch (e.kind) {
      case obs::EvidenceKind::NotSummarized:
      case obs::EvidenceKind::UnanalyzableHeader:
        os << " " << toString(e.kind);
        decisive = true;
        break;
      case obs::EvidenceKind::FlowTest:
        if (e.verdict != Truth::True) {
          os << " flow-test unresolved on " << e.subject << ";";
          decisive = true;
        }
        break;
      case obs::EvidenceKind::CopyOutDemotion:
        os << " copy-out demoted " << e.subject << ";";
        decisive = true;
        break;
      case obs::EvidenceKind::DependenceTest:
        if (e.verdict != Truth::True) {
          os << " carried-" << e.subject << " unresolved;";
          decisive = true;
        }
        break;
      case obs::EvidenceKind::ScalarExposed:
        os << " scalar " << e.subject << " exposed;";
        decisive = true;
        break;
      default: break;
    }
  }
  if (!decisive) os << " " << la.serialReason;
  std::string out = os.str();
  if (out.ends_with(";")) out.pop_back();
  return out;
}

void publishCorpusMetrics(const CorpusAnalysisResult& result, obs::MetricsRegistry& registry) {
  std::size_t parallel = 0, afterPriv = 0, serial = 0, provenanceEvents = 0;
  for (const CorpusRoutineResult& r : result.loops) {
    switch (r.classification) {
      case LoopClass::Parallel: ++parallel; break;
      case LoopClass::ParallelAfterPrivatization: ++afterPriv; break;
      case LoopClass::Serial: ++serial; break;
    }
    provenanceEvents += r.provenanceEvidenceCount;
  }
  registry.counter("corpus.loops").set(result.loops.size());
  registry.counter("corpus.parallel").set(parallel);
  registry.counter("corpus.parallel_after_privatization").set(afterPriv);
  registry.counter("corpus.serial").set(serial);
  registry.counter("corpus.threads").set(result.threadsUsed);
  registry.counter("provenance.evidence").set(provenanceEvents);

  registry.counter("summary.block_steps").set(result.summaryStats.blockSteps);
  registry.counter("summary.loop_expansions").set(result.summaryStats.loopExpansions);
  registry.counter("summary.call_mappings").set(result.summaryStats.callMappings);
  registry.counter("summary.peak_list_length").set(result.summaryStats.peakListLength);
  registry.counter("summary.gars_created").set(result.summaryStats.garsCreated);

  registry.counter("query_cache.hits").set(result.cacheStats.hits);
  registry.counter("query_cache.misses").set(result.cacheStats.misses);
  registry.counter("query_cache.entries").set(result.cacheStats.entries);
  registry.counter("query_cache.evictions").set(result.cacheStats.evictions);

  registry.counter("simplify_memo.hits").set(result.simplifyStats.hits);
  registry.counter("simplify_memo.misses").set(result.simplifyStats.misses);
  registry.counter("simplify_memo.entries").set(result.simplifyStats.entries);
  registry.counter("simplify_memo.evictions").set(result.simplifyStats.evictions);

  // Elimination-cache counters of the query tier. The query.prefilter.*
  // counters are live (incremented at the query sites); these are snapshot
  // here like the other cache blocks.
  FmCacheStats fm = fmEliminationStats();
  registry.counter("fm_cache.hits").set(fm.hits);
  registry.counter("fm_cache.misses").set(fm.misses);
  registry.counter("fm_cache.entries").set(fm.entries);
  registry.counter("fm_cache.evictions").set(fm.evictions);
}

std::string formatCorpusStats(const CorpusAnalysisResult& result) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  publishCorpusMetrics(result, reg);
  auto value = [&](const char* name) { return reg.counterValue(name).value_or(0); };

  std::ostringstream os;
  std::size_t threads = value("corpus.threads");
  os << "corpus: " << value("corpus.loops") << " loops analyzed on " << threads << " thread"
     << (threads == 1 ? "" : "s") << " — " << value("corpus.parallel") << " parallel, "
     << value("corpus.parallel_after_privatization") << " parallel after privatization, "
     << value("corpus.serial") << " serial\n";
  os << obs::renderSummaryCost(value("summary.block_steps"), value("summary.loop_expansions"),
                               value("summary.call_mappings"), value("summary.peak_list_length"),
                               value("summary.gars_created"))
     << '\n';
  // The two cache blocks are one renderer with per-block labels; the rate
  // precision preserves each block's historical formatting byte-for-byte.
  struct CacheBlock {
    const char* label;
    const char* prefix;
    int rateDecimals;
  };
  for (const CacheBlock& block : {CacheBlock{"query cache", "query_cache", 1},
                                  CacheBlock{"simplify memo", "simplify_memo", 0}}) {
    std::string p(block.prefix);
    os << obs::renderCacheCounters(block.label, value((p + ".hits").c_str()),
                                   value((p + ".misses").c_str()),
                                   value((p + ".entries").c_str()),
                                   value((p + ".evictions").c_str()), block.rateDecimals)
       << '\n';
  }
  return os.str();
}

}  // namespace panorama
