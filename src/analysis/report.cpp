// The report layer: per-loop text reports, decision-provenance rendering
// (--explain), and the corpus-wide stats block — the latter driven by the
// obs metrics registry so the counters exist exactly once and every
// renderer (this file, panorama_driver --stats, the --metrics JSON dump)
// reads the same source of truth.
#include <string>

#include "panorama/analysis/analysis.h"
#include "panorama/analysis/driver.h"
#include "panorama/obs/metrics.h"
#include "panorama/predicate/fm_incremental.h"

namespace panorama {

namespace {

/// Appends every part to `out`; the renderers build their text this way
/// rather than through an ostringstream, whose first use in a process pays
/// for iostream and locale set-up.
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (out += ... += parts);
}

}  // namespace

std::string formatLoopAnalysis(const LoopAnalysis& la) {
  std::string out;
  append(out, la.procName, ": DO ", la.loop ? la.loop->doVar.c_str() : "?", " (line ",
         std::to_string(la.line), "): ", toString(la.classification));
  if (la.classification == LoopClass::Serial && !la.serialReason.empty())
    append(out, " — ", la.serialReason);
  out += '\n';
  for (const ArrayPrivatization& ap : la.arrays) {
    append(out, "    array ", ap.name, ": ");
    if (!ap.written)
      out += "read-only";
    else if (ap.privatizable)
      append(out, "privatizable", ap.needsCopyOut ? " (copy-out last value)" : "");
    else if (ap.candidate)
      append(out, "candidate, NOT privatizable (", ap.reason, ")");
    else
      out += ap.reason;
    out += '\n';
  }
  for (const ScalarInfo& si : la.scalars) {
    if (si.reduction)
      append(out, "    scalar ", si.name, ": reduction (", si.reductionOp, ")\n");
    else if (!si.privatizable)
      append(out, "    scalar ", si.name, ": exposed across iterations\n");
  }
  return out;
}

std::string formatProvenance(const LoopAnalysis& la) {
  std::string out;
  for (const obs::Evidence& e : la.provenance.evidence) {
    append(out, "    why [", toString(e.kind), "]");
    if (!e.subject.empty()) append(out, " ", e.subject);
    append(out, " -> ", toString(e.verdict));
    if (!e.detail.empty()) append(out, ": ", e.detail);
    out += '\n';
  }
  return out;
}

std::string provenanceSummary(const LoopAnalysis& la) {
  std::string out = toString(la.classification);
  if (la.classification != LoopClass::Serial) {
    // Name the arrays whose privatization the verdict rests on.
    bool any = false;
    for (const ArrayPrivatization& ap : la.arrays) {
      if (!ap.privatizable) continue;
      append(out, any ? "" : " [privatized:", " ", ap.name);
      any = true;
    }
    if (any) out += "]";
    return out;
  }
  out += ":";
  bool decisive = false;
  for (const obs::Evidence& e : la.provenance.evidence) {
    switch (e.kind) {
      case obs::EvidenceKind::NotSummarized:
      case obs::EvidenceKind::UnanalyzableHeader:
        append(out, " ", toString(e.kind));
        decisive = true;
        break;
      case obs::EvidenceKind::FlowTest:
        if (e.verdict != Truth::True) {
          append(out, " flow-test unresolved on ", e.subject, ";");
          decisive = true;
        }
        break;
      case obs::EvidenceKind::CopyOutDemotion:
        append(out, " copy-out demoted ", e.subject, ";");
        decisive = true;
        break;
      case obs::EvidenceKind::DependenceTest:
        if (e.verdict != Truth::True) {
          append(out, " carried-", e.subject, " unresolved;");
          decisive = true;
        }
        break;
      case obs::EvidenceKind::ScalarExposed:
        append(out, " scalar ", e.subject, " exposed;");
        decisive = true;
        break;
      default: break;
    }
  }
  if (!decisive) append(out, " ", la.serialReason);
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
  auto number = [&](const char* name) { return std::to_string(value(name)); };

  std::string out;
  const std::uint64_t threads = value("corpus.threads");
  append(out, "corpus: ", number("corpus.loops"), " loops analyzed on ", std::to_string(threads),
         threads == 1 ? " thread" : " threads", " — ", number("corpus.parallel"), " parallel, ",
         number("corpus.parallel_after_privatization"), " parallel after privatization, ",
         number("corpus.serial"), " serial\n");
  append(out,
         obs::renderSummaryCost(value("summary.block_steps"), value("summary.loop_expansions"),
                                value("summary.call_mappings"), value("summary.peak_list_length"),
                                value("summary.gars_created")),
         "\n");
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
    append(out,
           obs::renderCacheCounters(block.label, value((p + ".hits").c_str()),
                                    value((p + ".misses").c_str()),
                                    value((p + ".entries").c_str()),
                                    value((p + ".evictions").c_str()), block.rateDecimals),
           "\n");
  }
  return out;
}

}  // namespace panorama
