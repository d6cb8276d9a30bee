// Cost-attribution profiles (panorama::obs pillar 4).
//
// A CostProfile is a post-processing aggregation over the span buffers of
// obs/trace.h: it folds the flat per-thread event streams back into the
// nesting structure the RAII spans had at runtime and rolls them up three
// ways —
//
//   * by taxonomy: a phase tree keyed by span category (corpus.run →
//     summary.proc → ... → query.fm/query.implies), each node carrying
//     count, total time, self time (total minus the time attributed to
//     child phases) and the maximum single-span duration;
//   * by program entity: per-procedure cost (summary construction + loop
//     analysis + the cold queries issued underneath) and per-loop cost;
//   * by query: the top-K most expensive cold FM / implication evaluations,
//     with the rendered expression, the guard context (ProvenanceScope
//     label) and the verdict the span recorded.
//
// Cache-effectiveness lines (query cache, simplify memo) and incremental-
// session reuse records — including *why* each dirty unit was invalidated —
// are attached by the caller (the layers that own those counters), so the
// profile is a pure function of its inputs and this header stays free of
// analysis-layer dependencies.
//
// The aggregation invariant, asserted by tests/profile_test.cpp: for every
// phase node, selfNs + Σ children.totalNs == totalNs, and (single-threaded)
// the root phase totals sum to the traced wall time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "panorama/obs/trace.h"

namespace panorama::obs {

/// One node of the phase tree. Children are aggregated by category: every
/// span whose dynamically enclosing span mapped to this node contributes to
/// the child node of its own category.
struct PhaseNode {
  std::string category;
  std::uint64_t count = 0;
  std::int64_t totalNs = 0;
  std::int64_t selfNs = 0;  ///< totalNs minus Σ children.totalNs (exact)
  std::int64_t maxNs = 0;   ///< longest single span
  std::vector<PhaseNode> children;  ///< sorted by totalNs descending
};

/// Cost attributed to one procedure: its summary.proc spans plus the
/// analysis.loop / deptest.loop spans whose names carry its prefix.
struct ProcCost {
  std::string name;
  std::uint64_t summarySpans = 0;
  std::int64_t summaryNs = 0;
  std::uint64_t loopSpans = 0;
  std::int64_t loopNs = 0;
  std::uint64_t coldQueries = 0;  ///< outermost query.* spans underneath
  std::int64_t coldQueryNs = 0;
  std::int64_t totalNs() const { return summaryNs + loopNs; }
};

/// Cost attributed to one loop (an analysis.loop or deptest.loop span).
struct LoopCost {
  std::string proc;
  std::string name;  ///< "DO var"
  std::uint64_t count = 0;
  std::int64_t totalNs = 0;
  std::uint64_t coldQueries = 0;
  std::int64_t coldQueryNs = 0;
};

/// One expensive cold query, lifted verbatim from its span.
struct QueryCost {
  std::string kind;  ///< "query.fm", "query.implies", or "query.prefilter"
  std::string name;
  std::int64_t durNs = 0;
  std::uint32_t tid = 0;
  std::string expr;     ///< rendered expression ("expr" span arg, may be "")
  std::string context;  ///< guard context ("ctx" span arg, may be "")
  std::string verdict;  ///< "verdict" span arg
};

/// One cache's effectiveness counters, attached by the cache's owner.
struct CacheLine {
  std::string label;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;
  std::uint64_t evictions = 0;
  double hitRate() const {
    const double total = static_cast<double>(hits + misses);
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Why one session unit was re-analyzed instead of reused.
struct InvalidationCause {
  std::string unit;
  std::string cause;  ///< "fingerprint" | "added" | "callee-epoch" |
                      ///< "first-submit" | "carried-state" (a snapshot's
                      ///< unit that does not fit)
  std::string detail;
};

/// Why one loop inside a dirty unit was served from cache anyway
/// ("item-match"), why a reused loop's verdict was re-analyzed all the same
/// ("ue-after-changed"), or why a clean unit's cached citation moved
/// ("line-remap") — the loop-granular counterpart of InvalidationCause.
struct LoopReuseCause {
  std::string unit;
  std::int64_t line = 0;  ///< post-edit line of the reused loop
  std::string cause;      ///< "item-match" | "line-remap" | "ue-after-changed"
  std::string detail;
};

/// One submit's reuse accounting: the session's per-submit stats record
/// (`SessionStats` is this type), the `session.*` metrics source, and the
/// record a CostProfile embeds for warm runs.
struct SessionReuse {
  std::uint64_t epoch = 0;  ///< submit counter (1 = first/cold run)
  bool warm = false;        ///< some prior state was reusable
  bool fullInvalidation = false;  ///< first submit or options change
  std::uint64_t procedures = 0;   ///< procedure units after this submit
  std::uint64_t unchanged = 0;    ///< fingerprint-identical units
  std::uint64_t modified = 0;     ///< fingerprint changed
  std::uint64_t added = 0;
  std::uint64_t removed = 0;
  std::uint64_t dirty = 0;            ///< dirty-cone size (recomputed units)
  std::uint64_t summariesReused = 0;  ///< units seeded from the previous epoch
  std::uint64_t summariesRecomputed = 0;
  /// Re-summarized units whose frame and caller-visible summary came out
  /// unchanged: they kept their epoch, so no caller went dirty for them
  /// (the early cutoff, DESIGN.md §4.4).
  std::uint64_t summariesUnchanged = 0;
  std::uint64_t loopsReused = 0;      ///< loop analyses served from cache
  std::uint64_t loopsRecomputed = 0;
  /// Loop-granular reuse inside the dirty cone (DESIGN.md §4.9).
  std::uint64_t loopSkips = 0;        ///< loops reused inside dirty units
  std::uint64_t partialUnits = 0;     ///< dirty units with >=1 reused loop
  std::uint64_t unitsCleanLoops = 0;  ///< units with zero recomputed loops
  std::uint64_t unitsDirtyLoops = 0;  ///< units with >=1 recomputed loop
  std::uint64_t lineRemaps = 0;       ///< cached citations moved to post-edit lines
  /// Reused loops re-analyzed because the procedure's walk gave them a new
  /// downstream exposure (ueAfter, the copy-out probe); counted in
  /// loopsRecomputed, not in loopSkips.
  std::uint64_t ueAfterRecomputed = 0;
  /// Cumulative byte-identical resubmits served by the whole-file fast path
  /// (per-procedure diffing skipped entirely).
  std::uint64_t fileSkips = 0;
  std::vector<InvalidationCause> invalidations;  ///< one per dirty unit, in source order
  std::vector<LoopReuseCause> loopReuse;         ///< one per reused/remapped loop
};

struct CostProfile {
  std::int64_t wallNs = 0;  ///< latest span end minus earliest span start
  std::uint64_t events = 0;
  std::uint32_t threads = 0;            ///< distinct trace tids
  std::vector<PhaseNode> phases;        ///< merged roots, totalNs descending
  std::vector<ProcCost> procedures;     ///< totalNs descending
  std::vector<LoopCost> loops;          ///< totalNs descending
  std::vector<QueryCost> topQueries;    ///< durNs descending, K deep
  std::vector<CacheLine> caches;        ///< attached by the caller
  std::vector<SessionReuse> sessions;   ///< attached by the caller
};

struct ProfileOptions {
  std::size_t topQueries = 10;
};

/// Folds a span snapshot (Tracer::snapshot() order or any order — events are
/// re-sorted) into a CostProfile. Caches/sessions start empty.
CostProfile buildCostProfile(const std::vector<TraceEvent>& events,
                             const ProfileOptions& options = {});

/// Human-readable multi-section rendering.
std::string renderCostProfileText(const CostProfile& profile);

/// JSON rendering (schema_version 1; documented in DESIGN.md §4.5).
std::string renderCostProfileJson(const CostProfile& profile);

}  // namespace panorama::obs
