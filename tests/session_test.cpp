// Lifecycle guarantees of the incremental analysis session:
//   * a warm re-submit after an edit produces reports byte-identical to a
//     cold analysis of the edited source, at 1 and 4+ threads;
//   * invalidation is transitive through the summary dependency graph —
//     an edit that changes a leaf's summary re-summarizes the leaf and
//     every transitive caller while siblings keep their cached summaries
//     and epochs, and one that leaves the summary equal re-summarizes the
//     leaf alone (early cutoff);
//   * identical resubmission recomputes nothing;
//   * procedure add/remove dirties only the affected unit;
//   * two sessions in one process, and a warm submit against a cold one,
//     report the same --explain evidence, though they share the memo
//     tables and only the first to ask a query evaluates it cold;
//   * sessions never reset the process-wide verdict cache or its counters,
//     never change the process-wide query tier, and never write the
//     process-wide metrics registry;
//   * a session fed a stationary edit stream, in process or restarted from
//     a snapshot before every submit, reaches a steady state: no new
//     symbol, expression or predicate and no verdict-cache miss;
//   * a cold submit reports exactly what the batch analyzeProgramUnit does,
//     on every corpus program, at 1 and 4 threads, with and without the
//     quantified extension.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "panorama/analysis/driver.h"
#include "panorama/corpus/corpus.h"
#include "panorama/frontend/parser.h"
#include "panorama/obs/metrics.h"
#include "panorama/predicate/arena.h"
#include "panorama/predicate/fm_incremental.h"
#include "panorama/predicate/predicate.h"
#include "panorama/region/region.h"
#include "panorama/session/session.h"
#include "panorama/support/json.h"
#include "panorama/support/memo_cache.h"
#include "panorama/symbolic/arena.h"
#include "steady_state.h"
#include "wide_guard.h"

namespace panorama {
namespace {

/// Restores the global cache to its default configuration when a test ends,
/// so test order never matters.
struct CacheGuard {
  ~CacheGuard() { QueryCache::global().configure(QueryCache::kDefaultCapacity); }
};

// A diamond-free call chain main -> top -> mid -> leaf plus a sibling that
// main calls directly. `leaf` is textually last so edits to it cannot shift
// any other procedure's line numbers (see the line-number note in
// session/session.h).
const char* kBase = R"(
      program main
      real a(100)
      real b(100)
      do i = 1, 100
        a(i) = 0.0
      enddo
      call sib(b)
      call top(a)
      end
      subroutine sib(s)
      real s(100)
      do i = 1, 100
        s(i) = 1.0
      enddo
      end
      subroutine top(t)
      real t(100)
      call mid(t)
      end
      subroutine mid(m)
      real m(100)
      call leaf(m)
      end
      subroutine leaf(x)
      real x(100)
      do i = 1, 100
        x(i) = 2.0
      enddo
      end
)";

// Same program with the leaf's loop bounds and body changed: the leaf writes
// x(1:50) instead of x(1:100), so its summary changes and its callers must
// be re-summarized.
const char* kLeafEdited = R"(
      program main
      real a(100)
      real b(100)
      do i = 1, 100
        a(i) = 0.0
      enddo
      call sib(b)
      call top(a)
      end
      subroutine sib(s)
      real s(100)
      do i = 1, 100
        s(i) = 1.0
      enddo
      end
      subroutine top(t)
      real t(100)
      call mid(t)
      end
      subroutine mid(m)
      real m(100)
      call leaf(m)
      end
      subroutine leaf(x)
      real x(100)
      do i = 1, 50
        x(i) = 3.0
      enddo
      end
)";

std::string render(const SessionResult& r) {
  std::ostringstream os;
  for (const SessionLoopResult& loop : r.loops) {
    os << loop.procName << " | line " << loop.line << " | " << toString(loop.classification)
       << '\n'
       << loop.report << loop.provenance << '\n';
  }
  return os.str();
}

TEST(SessionTest, WarmRunByteIdenticalToColdAcrossThreadCounts) {
  CacheGuard guard;
  for (std::size_t threads : {1u, 4u, 8u}) {
    AnalysisOptions options;
    options.numThreads = threads;

    AnalysisSession warmSession(options);
    ASSERT_TRUE(warmSession.submit(kBase).ok) << threads << " threads";
    SessionResult warm = warmSession.submit(kLeafEdited);
    ASSERT_TRUE(warm.ok) << threads << " threads";
    EXPECT_GT(warm.stats.summariesReused, 0u) << threads << " threads";

    AnalysisSession coldSession(options);
    SessionResult cold = coldSession.submit(kLeafEdited);
    ASSERT_TRUE(cold.ok) << threads << " threads";
    EXPECT_TRUE(cold.stats.fullInvalidation);

    ASSERT_EQ(cold.loops.size(), warm.loops.size()) << threads << " threads";
    EXPECT_EQ(render(cold), render(warm)) << threads << " threads";
  }
}

TEST(SessionTest, IdenticalResubmissionRecomputesNothing) {
  CacheGuard guard;
  AnalysisSession session;
  SessionResult first = session.submit(kBase);
  ASSERT_TRUE(first.ok);
  EXPECT_TRUE(first.stats.fullInvalidation);
  EXPECT_EQ(first.stats.added, 5u);

  SessionResult second = session.submit(kBase);
  ASSERT_TRUE(second.ok);
  EXPECT_FALSE(second.stats.fullInvalidation);
  EXPECT_EQ(second.stats.unchanged, 5u);
  EXPECT_EQ(second.stats.dirty, 0u);
  EXPECT_EQ(second.stats.summariesReused, 5u);
  EXPECT_EQ(second.stats.summariesRecomputed, 0u);
  EXPECT_EQ(second.stats.loopsRecomputed, 0u);
  EXPECT_EQ(second.stats.loopsReused, second.loops.size());
  EXPECT_EQ(render(first), render(second));
  for (const char* name : {"main", "sib", "top", "mid", "leaf"})
    EXPECT_EQ(session.summaryEpochOf(name), 1u) << name;
}

TEST(SessionTest, TransitiveInvalidationThroughCallChain) {
  CacheGuard guard;
  AnalysisSession session;
  ASSERT_TRUE(session.submit(kBase).ok);

  SessionResult warm = session.submit(kLeafEdited);
  ASSERT_TRUE(warm.ok);
  EXPECT_FALSE(warm.stats.fullInvalidation);
  EXPECT_EQ(warm.stats.modified, 1u);
  EXPECT_EQ(warm.stats.unchanged, 4u);
  // The dirty cone is the edited leaf plus its transitive callers; the
  // sibling keeps its epoch-1 summary.
  EXPECT_EQ(warm.stats.dirty, 4u);
  EXPECT_EQ(warm.stats.summariesReused, 1u);
  EXPECT_EQ(session.summaryEpochOf("leaf"), 2u);
  EXPECT_EQ(session.summaryEpochOf("mid"), 2u);
  EXPECT_EQ(session.summaryEpochOf("top"), 2u);
  EXPECT_EQ(session.summaryEpochOf("sib"), 1u);
  // The main program was re-summarized too, but it has no formals and no
  // COMMON: what a caller could read of it is unchanged, so its epoch is.
  EXPECT_EQ(session.summaryEpochOf("main"), 1u);
  EXPECT_EQ(warm.stats.summariesUnchanged, 1u);

  // The same accounting is what publishSessionMetrics renders as session.*
  // metrics for the process that owns this session.
  publishSessionMetrics(warm.stats);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  EXPECT_EQ(reg.counterValue("session.dirty_cone"), 4u);
  EXPECT_EQ(reg.counterValue("session.summaries_reused"), 1u);
  EXPECT_EQ(reg.counterValue("session.modified"), 1u);
  EXPECT_EQ(reg.counterValue("session.epoch"), 2u);
}

/// Every `session.*` counter in the process registry, by name.
std::map<std::string, double> sessionCounters() {
  std::string error;
  std::optional<support::JsonValue> doc =
      support::JsonValue::parse(obs::MetricsRegistry::global().toJson(), &error);
  EXPECT_TRUE(doc.has_value()) << error;
  std::map<std::string, double> out;
  const support::JsonValue* counters = doc ? doc->find("counters") : nullptr;
  if (counters)
    for (const auto& [name, value] : counters->members())
      if (name.rfind("session.", 0) == 0) out[name] = value.asNumber();
  return out;
}

TEST(SessionTest, SessionsNeverWriteTheProcessRegistry) {
  // The registry is process-wide: a session that published its own submit
  // there would overwrite what the owner of another session published.
  CacheGuard guard;
  SessionStats known;
  known.epoch = 41;
  known.procedures = 7;
  known.unchanged = 5;
  known.modified = 2;
  known.dirty = 3;
  known.summariesReused = 4;
  known.loopsReused = 6;
  known.fileSkips = 9;
  publishSessionMetrics(known);
  const std::map<std::string, double> before = sessionCounters();
  ASSERT_EQ(before.at("session.epoch"), 41.0);

  AnalysisSession other;
  ASSERT_TRUE(other.submit(kBase).ok);
  ASSERT_TRUE(other.submit(kLeafEdited).ok);
  ASSERT_TRUE(other.submit(kLeafEdited).ok);  // the whole-file fast path
  EXPECT_EQ(sessionCounters(), before);
}

TEST(SessionTest, EveryDirtyUnitCarriesItsInvalidationCause) {
  CacheGuard guard;
  AnalysisSession session;

  SessionResult cold = session.submit(kBase);
  ASSERT_TRUE(cold.ok);
  ASSERT_EQ(cold.stats.invalidations.size(), 5u);
  for (const UnitInvalidation& inv : cold.stats.invalidations)
    EXPECT_EQ(inv.cause, "first-submit") << inv.unit;

  // Warm run after the leaf edit: the leaf itself is dirty by fingerprint,
  // its transitive callers by callee-epoch, and the sibling not at all.
  SessionResult warm = session.submit(kLeafEdited);
  ASSERT_TRUE(warm.ok);
  ASSERT_EQ(warm.stats.invalidations.size(), warm.stats.dirty);
  std::map<std::string, const UnitInvalidation*> byUnit;
  for (const UnitInvalidation& inv : warm.stats.invalidations) byUnit[inv.unit] = &inv;
  ASSERT_TRUE(byUnit.count("leaf"));
  EXPECT_EQ(byUnit.at("leaf")->cause, "fingerprint");
  // Each caller's cause names the callee whose summary changed.
  const std::map<std::string, std::string> changedCallee{
      {"mid", "leaf"}, {"top", "mid"}, {"main", "top"}};
  for (const auto& [caller, callee] : changedCallee) {
    ASSERT_TRUE(byUnit.count(caller)) << caller;
    EXPECT_EQ(byUnit.at(caller)->cause, "callee-epoch") << caller;
    EXPECT_EQ(byUnit.at(caller)->detail, "callee '" + callee + "' summary changed") << caller;
  }
  // In procedure (source) order, whatever finished first in the graph.
  std::vector<std::string> order;
  for (const UnitInvalidation& inv : warm.stats.invalidations) order.push_back(inv.unit);
  EXPECT_EQ(order, (std::vector<std::string>{"main", "top", "mid", "leaf"}));
  EXPECT_FALSE(byUnit.count("sib"));

  // The stats are the record CostProfiles embed, marked warm by the session.
  EXPECT_FALSE(cold.stats.warm);
  EXPECT_TRUE(warm.stats.warm);
  EXPECT_FALSE(warm.stats.fullInvalidation);
  EXPECT_EQ(warm.stats.epoch, 2u);

  // An added procedure attributes its own cause. Build on the edited source:
  // the session's live state is kLeafEdited, so the only delta is the new
  // procedure.
  std::string withExtra = std::string(kLeafEdited) +
                          "      subroutine extra(e)\n"
                          "      real e(100)\n"
                          "      do i = 1, 100\n"
                          "        e(i) = 4.0\n"
                          "      enddo\n"
                          "      end\n";
  SessionResult added = session.submit(withExtra);
  ASSERT_TRUE(added.ok);
  ASSERT_EQ(added.stats.invalidations.size(), 1u);
  EXPECT_EQ(added.stats.invalidations[0].unit, "extra");
  EXPECT_EQ(added.stats.invalidations[0].cause, "added");
}

TEST(SessionTest, ProcedureAddAndRemoveDirtyOnlyTheAffectedUnit) {
  CacheGuard guard;
  std::string withExtra = std::string(kBase) +
                          "      subroutine extra(e)\n"
                          "      real e(100)\n"
                          "      do i = 1, 100\n"
                          "        e(i) = 4.0\n"
                          "      enddo\n"
                          "      end\n";
  AnalysisSession session;
  ASSERT_TRUE(session.submit(kBase).ok);

  SessionResult added = session.submit(withExtra);
  ASSERT_TRUE(added.ok);
  EXPECT_EQ(added.stats.added, 1u);
  EXPECT_EQ(added.stats.unchanged, 5u);
  EXPECT_EQ(added.stats.dirty, 1u);
  EXPECT_EQ(session.summaryEpochOf("extra"), 2u);
  EXPECT_EQ(session.summaryEpochOf("main"), 1u);

  SessionResult removed = session.submit(kBase);
  ASSERT_TRUE(removed.ok);
  EXPECT_EQ(removed.stats.removed, 1u);
  EXPECT_EQ(removed.stats.unchanged, 5u);
  EXPECT_EQ(removed.stats.dirty, 0u);
  EXPECT_EQ(session.summaryEpochOf("extra"), 0u);
  EXPECT_EQ(session.summaryEpochOf("main"), 1u);
}

// ----- loop-granular reuse inside the dirty cone (DESIGN.md §4.9) ----------

/// Four independent doubly-nested loop nests plus a trailing assignment.
/// `editedNest` (1-based, 0 = none) changes a constant inside that nest;
/// `comment` prepends a comment line shifting every statement down one.
std::string nestSource(int editedNest, bool comment = false) {
  std::string src = "      subroutine kern(a, b, n)\n";
  src += "      integer n\n";
  src += "      real a(100,4)\n";
  src += "      real b(100,4)\n";
  src += "      real t\n";
  if (comment) src += "c shifted down by one line\n";
  for (int k = 1; k <= 4; ++k) {
    const int lbl = 10 * k;
    const std::string col = std::to_string(k);
    const std::string c = (k == editedNest) ? "3.0" : "1.0";
    src += "      do " + std::to_string(lbl) + " i = 1, n\n";
    src += "      do " + std::to_string(lbl + 1) + " j = 1, n\n";
    src += "      t = a(j," + col + ") + " + c + "\n";
    src += "      b(j," + col + ") = t * 2.0\n";
    src += std::to_string(lbl + 1) + "    continue\n";
    src += std::to_string(lbl) + "    continue\n";
  }
  src += "      b(1,1) = 0.0\n";
  src += "      end\n";
  return src;
}

std::size_t causeCount(const SessionResult& r, const std::string& cause) {
  std::size_t n = 0;
  for (const LoopReuse& c : r.stats.loopReuse)
    if (c.cause == cause) ++n;
  return n;
}

TEST(SessionTest, SingleLoopEditReusesEveryLaterNestAcrossThreadCounts) {
  CacheGuard guard;
  for (std::size_t threads : {1u, 4u, 8u}) {
    AnalysisOptions options;
    options.numThreads = threads;

    AnalysisSession session(options);
    ASSERT_TRUE(session.submit(nestSource(0)).ok) << threads << " threads";
    SessionResult warm = session.submit(nestSource(1));
    ASSERT_TRUE(warm.ok) << threads << " threads";

    // Editing the FIRST nest leaves every later nest's (hash, suffix)
    // intact: 3 nests x 2 loops served from cache, one nest recomputed.
    EXPECT_EQ(warm.stats.dirty, 1u) << threads << " threads";
    EXPECT_EQ(warm.stats.loopSkips, 6u) << threads << " threads";
    EXPECT_EQ(warm.stats.partialUnits, 1u) << threads << " threads";
    EXPECT_EQ(warm.stats.unitsDirtyLoops, 1u) << threads << " threads";
    EXPECT_EQ(causeCount(warm, "item-match"), 6u) << threads << " threads";

    AnalysisSession coldSession(options);
    SessionResult cold = coldSession.submit(nestSource(1));
    ASSERT_TRUE(cold.ok) << threads << " threads";
    EXPECT_EQ(render(cold), render(warm)) << threads << " threads";
  }
}

TEST(SessionTest, EditToTheLastNestReusesEveryEarlierNest) {
  CacheGuard guard;
  for (std::size_t threads : {1u, 4u}) {
    AnalysisOptions options;
    options.numThreads = threads;
    AnalysisSession session(options);
    ASSERT_TRUE(session.submit(nestSource(0)).ok);
    SessionResult warm = session.submit(nestSource(4));
    ASSERT_TRUE(warm.ok);

    // Items are keyed on their own subtree: the three earlier nests match,
    // and the walk leaves their ueAfter (the copy-out probe) as it was, so
    // their verdicts stand. Only the edited nest's two loops recompute.
    EXPECT_EQ(warm.stats.loopSkips, 6u) << threads << " threads";
    EXPECT_EQ(warm.stats.partialUnits, 1u) << threads << " threads";
    EXPECT_EQ(warm.stats.loopsRecomputed, 2u) << threads << " threads";
    EXPECT_EQ(warm.stats.ueAfterRecomputed, 0u) << threads << " threads";

    AnalysisSession coldSession(options);
    SessionResult cold = coldSession.submit(nestSource(4));
    ASSERT_TRUE(cold.ok);
    EXPECT_EQ(render(cold), render(warm)) << threads << " threads";
  }
}

TEST(SessionTest, AReadAfterALoopReanalyzesOnlyTheLoopWhoseCopyOutItFlips) {
  CacheGuard guard;
  // Two nests write a local work array; a trailing read of it makes the
  // second nest's privatized copy live after the loop. Nothing in either
  // nest changes, so both match, and only the second nest's ueAfter moves:
  // it runs at least once, so it kills w(1) before the first nest's exit
  // sees the new read.
  auto source = [](bool readAfter) {
    std::string src = "      subroutine kern(a, b)\n"
                      "      real a(100), b(100)\n"
                      "      real w(10)\n";
    for (int k = 1; k <= 2; ++k) {
      const std::string lbl = std::to_string(10 * k);
      src += "      do " + lbl + " i = 1, 100\n"
             "      w(1) = a(i)\n"
             "      b(i) = w(1) * 2.0\n" +
             lbl + "    continue\n";
    }
    if (readAfter) src += "      b(1) = w(1)\n";
    src += "      end\n";
    return src;
  };
  AnalysisSession session;
  ASSERT_TRUE(session.submit(source(false)).ok);
  SessionResult warm = session.submit(source(true));
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.stats.ueAfterRecomputed, 1u);
  EXPECT_EQ(warm.stats.loopsRecomputed, 1u);
  EXPECT_EQ(warm.stats.loopSkips, 1u);
  EXPECT_EQ(causeCount(warm, "ue-after-changed"), 1u);
  EXPECT_NE(formatSessionStats(warm.stats).find("session.ue_after_recomputed: 1"),
            std::string::npos);

  AnalysisSession coldSession;
  SessionResult cold = coldSession.submit(source(true));
  ASSERT_TRUE(cold.ok);
  EXPECT_EQ(render(cold), render(warm));
}

TEST(SessionTest, AnUnchangedNestThatABackwardGotoCondensesIsRecomputed) {
  CacheGuard guard;
  // The DO item is the same text in both versions, but a backward GOTO
  // after it pulls it into a condensed cycle: the procedure's walk no
  // longer reaches the loop, so neither its carried summary nor its
  // verdict may be served, in either direction.
  const std::string plain = "      subroutine kern(a, n)\n"
                            "      integer n, k\n"
                            "      real a(100), w(10)\n"
                            "      k = 0\n"
                            "20    k = k + 1\n"
                            "      do 10 i = 1, n\n"
                            "        w(1) = a(i)\n"
                            "        a(i) = w(1) * 2.0\n"
                            "10    continue\n"
                            "      a(1) = 0.0\n"
                            "      end\n";
  std::string cycle = plain;
  cycle.replace(cycle.find("      a(1) = 0.0"), 16, "      if (k .lt. 3) goto 20");
  for (const auto& [from, to] : {std::pair{plain, cycle}, std::pair{cycle, plain}}) {
    AnalysisSession session;
    ASSERT_TRUE(session.submit(from).ok);
    SessionResult warm = session.submit(to);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.stats.loopSkips, 0u);
    AnalysisSession coldSession;
    SessionResult cold = coldSession.submit(to);
    ASSERT_TRUE(cold.ok);
    EXPECT_EQ(render(cold), render(warm));
  }
}

TEST(SessionTest, CommentOnlyEditDirtiesNothingAndCitesPostEditLines) {
  CacheGuard guard;
  AnalysisSession session;
  SessionResult cold = session.submit(nestSource(0));
  ASSERT_TRUE(cold.ok);
  SessionResult shifted = session.submit(nestSource(0, /*comment=*/true));
  ASSERT_TRUE(shifted.ok);

  EXPECT_EQ(shifted.stats.dirty, 0u);
  EXPECT_EQ(shifted.stats.modified, 0u);
  EXPECT_GE(shifted.stats.lineRemaps, 1u);
  EXPECT_GE(causeCount(shifted, "line-remap"), 1u);

  // Same verdicts, every citation one line lower (the comment precedes all
  // loops) — and byte-identical to a cold run of the shifted source.
  ASSERT_EQ(cold.loops.size(), shifted.loops.size());
  for (std::size_t k = 0; k < cold.loops.size(); ++k)
    EXPECT_EQ(cold.loops[k].line + 1, shifted.loops[k].line) << "loop " << k;
  AnalysisSession coldSession;
  SessionResult coldShifted = coldSession.submit(nestSource(0, /*comment=*/true));
  ASSERT_TRUE(coldShifted.ok);
  EXPECT_EQ(render(coldShifted), render(shifted));
}

TEST(SessionTest, CalleeEditRecomputesOnlyLoopsThatReadItsSummary) {
  CacheGuard guard;
  auto source = [](const char* target) {
    return std::string("      subroutine kern(a, b, n)\n"
                       "      integer n\n"
                       "      real a(100)\n"
                       "      real b(100)\n"
                       "      do 10 i = 1, n\n"
                       "      call bump(a, i)\n"
                       "10    continue\n"
                       "      do 20 i = 1, n\n"
                       "      b(i) = 1.0\n"
                       "20    continue\n"
                       "      end\n"
                       "      subroutine bump(x, k)\n"
                       "      integer k\n"
                       "      real x(100)\n"
                       "      ") +
           target + " = x(k) + 2.0\n      end\n";
  };
  AnalysisSession session;
  ASSERT_TRUE(session.submit(source("x(k)")).ok);
  SessionResult warm = session.submit(source("x(k+1)"));
  ASSERT_TRUE(warm.ok);

  // kern's text is unchanged, but bump now writes x(k+1): its summary, and
  // so its epoch, moved. The first nest calls bump, so its recorded callee
  // epoch mismatches and it recomputes; the second nest's subtree is
  // call-free, so its verdict never read bump and is served from cache.
  EXPECT_EQ(warm.stats.dirty, 2u);
  EXPECT_EQ(warm.stats.summariesUnchanged, 0u);
  EXPECT_EQ(warm.stats.loopSkips, 1u);
  EXPECT_EQ(warm.stats.partialUnits, 1u);

  AnalysisSession coldSession;
  SessionResult cold = coldSession.submit(source("x(k+1)"));
  ASSERT_TRUE(cold.ok);
  EXPECT_EQ(render(cold), render(warm));
}

TEST(SessionTest, CalleeEditThatKeepsItsSummaryLeavesCallersClean) {
  CacheGuard guard;
  // The leaf's stored constant changes (x(i) = 2.0 -> 3.0): its write set,
  // and everything else a caller reads through SUM_call, stays the same.
  std::string constantEdit = kBase;
  const std::size_t at = constantEdit.rfind("x(i) = 2.0");
  ASSERT_NE(at, std::string::npos);
  constantEdit.replace(at, 10, "x(i) = 3.0");

  for (std::size_t threads : {1u, 4u}) {
    AnalysisOptions options;
    options.numThreads = threads;
    AnalysisSession session(options);
    ASSERT_TRUE(session.submit(kBase).ok);
    SessionResult warm = session.submit(constantEdit);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.stats.modified, 1u) << threads << " threads";
    EXPECT_EQ(warm.stats.dirty, 1u) << threads << " threads";
    EXPECT_EQ(warm.stats.summariesReused, 4u) << threads << " threads";
    EXPECT_EQ(warm.stats.summariesUnchanged, 1u) << threads << " threads";
    ASSERT_EQ(warm.stats.invalidations.size(), 1u) << threads << " threads";
    EXPECT_EQ(warm.stats.invalidations[0].unit, "leaf") << threads << " threads";
    // The leaf keeps the epoch its callers recorded.
    for (const char* name : {"main", "sib", "top", "mid", "leaf"})
      EXPECT_EQ(session.summaryEpochOf(name), 1u) << name << ", " << threads << " threads";
    EXPECT_NE(formatSessionStats(warm.stats).find("session.summaries_unchanged: 1"),
              std::string::npos);

    AnalysisSession coldSession(options);
    SessionResult cold = coldSession.submit(constantEdit);
    ASSERT_TRUE(cold.ok);
    EXPECT_EQ(render(cold), render(warm)) << threads << " threads";
  }
}

TEST(SessionTest, LoopGranularReuseOffIsByteIdenticalWithZeroSkips) {
  CacheGuard guard;
  AnalysisOptions granular;
  AnalysisOptions procedural;
  procedural.loopGranularReuse = false;

  AnalysisSession on(granular);
  ASSERT_TRUE(on.submit(nestSource(0)).ok);
  SessionResult warmOn = on.submit(nestSource(1));
  ASSERT_TRUE(warmOn.ok);
  EXPECT_GT(warmOn.stats.loopSkips, 0u);

  AnalysisSession off(procedural);
  ASSERT_TRUE(off.submit(nestSource(0)).ok);
  SessionResult warmOff = off.submit(nestSource(1));
  ASSERT_TRUE(warmOff.ok);
  EXPECT_EQ(warmOff.stats.loopSkips, 0u);
  EXPECT_EQ(warmOff.stats.partialUnits, 0u);

  EXPECT_EQ(render(warmOn), render(warmOff));
}

TEST(SessionTest, StatsFormatCarriesLoopGranularCounters) {
  CacheGuard guard;
  AnalysisSession session;
  ASSERT_TRUE(session.submit(nestSource(0)).ok);
  SessionResult warm = session.submit(nestSource(1));
  ASSERT_TRUE(warm.ok);
  const std::string stats = formatSessionStats(warm.stats);
  EXPECT_NE(stats.find("session.units_clean/dirty_loops:"), std::string::npos) << stats;
  EXPECT_NE(stats.find("session.loop_skips:"), std::string::npos) << stats;
  EXPECT_NE(stats.find("session.loop_reuse_cause:"), std::string::npos) << stats;
  EXPECT_NE(stats.find("item-match"), std::string::npos) << stats;
}

TEST(SessionTest, FailedSubmitLeavesSessionIntact) {
  CacheGuard guard;
  AnalysisSession session;
  ASSERT_TRUE(session.submit(kBase).ok);
  EXPECT_EQ(session.epoch(), 1u);

  SessionResult bad = session.submit("      program main\n      call nosuch(\n      end\n");
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
  EXPECT_EQ(session.epoch(), 1u);

  // The session still re-analyzes incrementally from the surviving state.
  SessionResult warm = session.submit(kLeafEdited);
  ASSERT_TRUE(warm.ok);
  EXPECT_FALSE(warm.stats.fullInvalidation);
  EXPECT_EQ(warm.stats.dirty, 4u);
  EXPECT_EQ(warm.stats.summariesReused, 1u);
}

// Sessions that share a process share its memo tables but never reset
// them: constructing sessions, one of them with other ablation options,
// leaves the verdict cache's entries and counters as they were, and a fresh
// session's submit of an already-analyzed source is served from the cache.
TEST(SessionTest, SessionsNeverResetTheSharedVerdictCache) {
  CacheGuard guard;
  const char* source = perfectCorpus().front().source;
  AnalysisOptions options;
  options.numThreads = 1;
  AnalysisSession resident(options);
  ASSERT_TRUE(resident.submit(std::string(source)).ok);
  const QueryCache::Stats before = QueryCache::global().stats();
  ASSERT_GT(before.entries, 0u);

  AnalysisOptions ablated = options;
  ablated.ifConditions = false;
  std::vector<std::unique_ptr<AnalysisSession>> others;
  for (int k = 0; k < 4; ++k)
    others.push_back(std::make_unique<AnalysisSession>(k == 0 ? ablated : options));
  const QueryCache::Stats after = QueryCache::global().stats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);

  ASSERT_TRUE(others[1]->submit(std::string(source)).ok);
  const QueryCache::Stats resubmitted = QueryCache::global().stats();
  EXPECT_GT(resubmitted.hits, after.hits);
  EXPECT_EQ(resubmitted.misses, after.misses) << "an analyzed source's verdicts are all cached";
}

/// Empties the memo tables that every session in a process shares, so the
/// next submit evaluates each of its queries cold.
void clearSharedMemos() {
  QueryCache::global().clear();
  clearSimplifyMemo();
  clearFmEliminationCache();
}

// The second session finds every verdict of the wide-guard kernel in the
// shared memo tables; its reports and evidence must still be the first's.
TEST(SessionTest, TwoSessionsInOneProcessReportTheSameEvidence) {
  CacheGuard guard;
  clearSharedMemos();
  AnalysisOptions options;
  options.numThreads = 1;
  AnalysisSession first(options);
  SessionResult a = first.submit(wide_guard::kernel());
  ASSERT_TRUE(a.ok) << a.error;
  AnalysisSession second(options);
  SessionResult b = second.submit(wide_guard::kernel());
  ASSERT_TRUE(b.ok) << b.error;
  ASSERT_EQ(a.loops.size(), 2u);
  EXPECT_NE(a.loops[0].provenance.find("why [dependence-test] flow -> unknown"), std::string::npos);
  EXPECT_EQ(render(b), render(a));
}

// A warm submit re-analyzes the edited loop against verdicts the previous
// submit cached; it must report what a cold submit of the edited text does.
TEST(SessionTest, WarmSubmitReportsTheEvidenceOfAColdOne) {
  CacheGuard guard;
  clearSharedMemos();
  AnalysisOptions options;
  options.numThreads = 1;
  AnalysisSession warmSession(options);
  ASSERT_TRUE(warmSession.submit(wide_guard::kernel()).ok);
  SessionResult warm = warmSession.submit(wide_guard::kernel(true));
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_FALSE(warm.stats.fullInvalidation);

  clearSharedMemos();
  AnalysisSession coldSession(options);
  SessionResult cold = coldSession.submit(wide_guard::kernel(true));
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_EQ(cold.loops.size(), 2u);
  EXPECT_EQ(render(warm), render(cold));
}

/// What a warm session may only grow while it meets new text.
struct Footprint {
  std::size_t exprs = 0;
  std::size_t preds = 0;
  std::size_t regions = 0;
  std::uint64_t verdictMisses = 0;
  std::size_t symbols = 0;
};

Footprint footprint(const AnalysisSession& session) {
  return {ExprArena::global().stats().distinct, PredArena::global().stats().distinct,
          RegionTable::global().stats().distinct, QueryCache::global().stats().misses,
          session.status().symbols};
}

void expectUnchanged(const Footprint& settled, const Footprint& now, const std::string& what) {
  EXPECT_EQ(now.exprs, settled.exprs) << what << ": expression arena grew";
  EXPECT_EQ(now.preds, settled.preds) << what << ": predicate arena grew";
  EXPECT_EQ(now.regions, settled.regions) << what << ": region table grew";
  EXPECT_EQ(now.verdictMisses, settled.verdictMisses) << what << ": verdict cache missed";
  EXPECT_EQ(now.symbols, settled.symbols) << what << ": symbol table grew";
}

// Re-summarizing a loop reuses its index's one reserved primed copy, so a
// stationary edit stream settles: after the warm-up, 20 more cycles of the
// same edits intern nothing and miss no verdict.
TEST(SessionTest, WarmSessionReachesASteadyState) {
  CacheGuard guard;
  for (std::size_t threads : {1u, 4u}) {
    AnalysisOptions options;
    options.numThreads = threads;
    AnalysisSession session(options);
    ASSERT_TRUE(session.submit(steady::kernel(steady::Edit::None)).ok);
    Footprint settled;
    for (int c = 1; c <= 21; ++c) {
      for (const std::string& text : steady::cycle())
        ASSERT_TRUE(session.submit(text).ok) << "cycle " << c << ", " << threads << " threads";
      if (c == 2) settled = footprint(session);
    }
    EXPECT_GT(settled.symbols, 0u);
    expectUnchanged(settled, footprint(session), std::to_string(threads) + " threads");
  }
}

// The same stream with a snapshot save -> restore into a fresh session
// before every submit: the symbol table a snapshot carries stops growing.
TEST(SessionTest, SnapshotRestartsReachASteadyState) {
  CacheGuard guard;
  const std::string path = testing::TempDir() + "session_steady_state.pano";
  AnalysisOptions options;
  options.numThreads = 1;
  {
    AnalysisSession first(options);
    ASSERT_TRUE(first.submit(steady::kernel(steady::Edit::None)).ok);
    ASSERT_TRUE(first.save(path).ok);
  }
  Footprint settled, last;
  for (int c = 1; c <= 21; ++c) {
    for (const std::string& text : steady::cycle()) {
      AnalysisSession session(options);
      store::StoreResult restored = session.restore(path);
      ASSERT_TRUE(restored.ok) << restored.error;
      ASSERT_TRUE(session.submit(text).ok) << "cycle " << c;
      store::StoreResult saved = session.save(path);
      ASSERT_TRUE(saved.ok) << saved.error;
      last = footprint(session);
    }
    if (c == 2) settled = last;
  }
  std::remove(path.c_str());
  EXPECT_GT(settled.symbols, 0u);
  expectUnchanged(settled, last, "restart path");
}

// The query tier is a process setting (fm_incremental.h) that no session
// entry point may change: with the tier turned off, building a standalone
// and a shared-pool session, save, restore and submit all leave it off, run
// no prefilter query, and report what a tier-on session does.
TEST(SessionTest, SessionsNeverChangeTheQueryTier) {
  CacheGuard guard;
  struct TierGuard {
    ~TierGuard() { setQueryTierEnabled(true); }  // the process default
  } tierGuard;
  AnalysisOptions options;
  options.numThreads = 1;
  AnalysisSession tiered(options);
  ASSERT_TRUE(tiered.submit(kBase).ok);
  SessionResult want = tiered.submit(kLeafEdited);
  ASSERT_TRUE(want.ok);

  setQueryTierEnabled(false);
  obs::Counter& prefilterAttempts =
      obs::MetricsRegistry::global().counter("query.prefilter.attempts");
  const std::uint64_t attemptsBefore = prefilterAttempts.value();
  ThreadPool pool(2);
  AnalysisSession standalone(options);
  AnalysisSession shared(options, &pool);
  EXPECT_FALSE(queryTierEnabled()) << "a session constructor changed the tier";

  ASSERT_TRUE(standalone.submit(kBase).ok);
  const std::string snapshot = testing::TempDir() + "session_tier.pano";
  ASSERT_TRUE(standalone.save(snapshot).ok);
  store::StoreResult restored = shared.restore(snapshot);
  std::remove(snapshot.c_str());
  ASSERT_TRUE(restored.ok) << restored.error;
  EXPECT_FALSE(queryTierEnabled()) << "save or restore changed the tier";

  SessionResult warm = standalone.submit(kLeafEdited);
  SessionResult restoredWarm = shared.submit(kLeafEdited);
  ASSERT_TRUE(warm.ok);
  ASSERT_TRUE(restoredWarm.ok);
  EXPECT_FALSE(queryTierEnabled()) << "a submit changed the tier";
  EXPECT_EQ(prefilterAttempts.value(), attemptsBefore) << "a prefilter query ran";
  EXPECT_EQ(render(warm), render(want));
  EXPECT_EQ(render(restoredWarm), render(want));
}

// The two front doors of the one scheduler — the batch analyzeProgramUnit
// and a cold session submit — agree on every corpus program, loop for loop.
TEST(SessionTest, ColdSubmitMatchesBatchAnalysisOnEveryCorpusProgram) {
  CacheGuard guard;
  std::vector<std::pair<std::string, const char*>> programs;
  for (const CorpusLoop& cl : perfectCorpus()) programs.emplace_back(cl.id, cl.source);
  programs.emplace_back("fig1a", fig1aSource());
  programs.emplace_back("fig1b", fig1bSource());
  programs.emplace_back("fig1c", fig1cSource());
  ASSERT_EQ(programs.size(), 15u);

  for (bool quantified : {false, true}) {
    for (std::size_t threads : {1u, 4u}) {
      AnalysisOptions options;
      options.quantified = quantified;
      options.numThreads = threads;
      ThreadPool pool(threads);
      for (const auto& [id, source] : programs) {
        SCOPED_TRACE(id + (quantified ? " quantified" : "") + " threads=" +
                     std::to_string(threads));
        DiagnosticEngine diags;
        std::optional<Program> program = parseProgram(source, diags);
        ASSERT_TRUE(program.has_value()) << diags.str();
        ProgramAnalysis batch = analyzeProgramUnit(std::move(*program), options, pool);
        ASSERT_TRUE(batch.ok) << batch.error;

        AnalysisSession session(options);
        SessionResult cold = session.submit(std::string(source));
        ASSERT_TRUE(cold.ok) << cold.error;
        ASSERT_EQ(cold.loops.size(), batch.loops.size());
        for (std::size_t k = 0; k < cold.loops.size(); ++k) {
          EXPECT_EQ(cold.loops[k].report, formatLoopAnalysis(batch.loops[k])) << "loop " << k;
          EXPECT_EQ(cold.loops[k].provenance, formatProvenance(batch.loops[k])) << "loop " << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace panorama
