// The incremental-session bench: cold analysis of the whole Perfect corpus
// versus a warm re-analysis after a single-procedure edit.
//
// Setup: one persistent AnalysisSession per corpus kernel. The cold phase
// submits every kernel's source; the warm phase re-submits every source
// with exactly one kernel edited — a CONTINUE inserted into its textually
// last procedure, which changes that procedure's fingerprint without
// shifting any other procedure's lines. It leaves the procedure's summary
// as it was, so the early cutoff (DESIGN.md §4.4) keeps its callers clean
// and the dirty cone is the edited procedure alone. A separate call-chain
// program gets the opposite edit: its leaf writes half of the array every
// level passes down instead of all of it, so every summary up the chain
// changes and the dirty cone is the leaf and all its transitive callers.
//
// Contracts checked here (the bench fails, and CI with it, when violated):
//   * warm reports are byte-identical to a cold analysis of the edited
//     sources;
//   * warm wall time does not exceed cold wall time;
//   * reuse counters are exact — a change in the dirty-cone size is a
//     behavior change, not noise;
//   * a stationary edit stream settles: its second cycle interns no new
//     expression or symbol.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "panorama/corpus/corpus.h"
#include "panorama/obs/trace.h"
#include "panorama/session/session.h"
#include "panorama/support/memo_cache.h"
#include "panorama/symbolic/arena.h"

using namespace panorama;

namespace {

/// Inserts a CONTINUE statement at the end of the file's last procedure
/// body: a real statement (the procedure's fingerprint changes) that leaves
/// every other procedure's text and line numbers untouched.
std::string editLastProcedure(const std::string& source) {
  std::size_t pos = source.rfind("\n      end");
  if (pos == std::string::npos) return source;
  return source.substr(0, pos + 1) + "      continue\n" + source.substr(pos + 1);
}

/// main -> top -> mid -> leaf, each passing the COMMON array `g` down as
/// its formal; `leafUp` is the leaf loop's upper bound, so changing it
/// changes every summary up the chain.
std::string chainSource(int leafUp) {
  return "      program main\n"
         "      real g(100)\n"
         "      common /blk/ g\n"
         "      call top(g)\n"
         "      end\n"
         "      subroutine top(t)\n"
         "      real t(100)\n"
         "      call mid(t)\n"
         "      end\n"
         "      subroutine mid(m)\n"
         "      real m(100)\n"
         "      call leaf(m)\n"
         "      end\n"
         "      subroutine leaf(x)\n"
         "      real x(100)\n"
         "      do i = 1, " +
         std::to_string(leafUp) +
         "\n"
         "        x(i) = 2.0\n"
         "      enddo\n"
         "      end\n";
}

std::string fingerprintOf(const std::vector<SessionResult>& results) {
  std::string out;
  for (const SessionResult& r : results)
    for (const SessionLoopResult& loop : r.loops) {
      out += loop.procName;
      out += '|';
      out += std::to_string(loop.line);
      out += '|';
      out += toString(loop.classification);
      out += '\n';
      out += loop.report;
    }
  return out;
}

struct RunResult {
  bool ok = true;
  std::string error;
  double coldMs = 0;
  double warmMs = 0;
  std::size_t warmReused = 0;
  std::size_t warmRecomputed = 0;
  std::size_t warmDirty = 0;
  std::string warmFingerprint;
};

RunResult runOnce(const std::vector<std::string>& baseSources,
                  const std::vector<std::string>& warmSources) {
  RunResult rr;
  std::vector<std::unique_ptr<AnalysisSession>> sessions;
  sessions.reserve(baseSources.size());
  for (std::size_t k = 0; k < baseSources.size(); ++k)
    sessions.push_back(std::make_unique<AnalysisSession>());

  // Sessions share the process's verdict cache; the cold phase starts it
  // empty so cold_wall_ms stays a cold-analysis reference.
  QueryCache::global().clear();
  auto t0 = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < baseSources.size(); ++k) {
    SessionResult r = sessions[k]->submit(baseSources[k]);
    if (!r.ok) {
      rr.ok = false;
      rr.error = "cold submit " + std::to_string(k) + " failed:\n" + r.error;
      return rr;
    }
  }
  rr.coldMs =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();

  std::vector<SessionResult> warm(warmSources.size());
  t0 = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < warmSources.size(); ++k) {
    warm[k] = sessions[k]->submit(warmSources[k]);
    if (!warm[k].ok) {
      rr.ok = false;
      rr.error = "warm submit " + std::to_string(k) + " failed:\n" + warm[k].error;
      return rr;
    }
  }
  rr.warmMs =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();

  for (const SessionResult& r : warm) {
    rr.warmReused += r.stats.summariesReused;
    rr.warmRecomputed += r.stats.summariesRecomputed;
    rr.warmDirty += r.stats.dirty;
  }
  rr.warmFingerprint = fingerprintOf(warm);
  return rr;
}

// ----- single-loop-edit scenario (loop-granular reuse, DESIGN.md §4.9) -----
//
// One procedure with kNests independent top-level loop nests; the edit
// changes a constant inside one nest. Items are keyed on their own
// subtree, and the edit leaves every other nest's downstream exposure
// (ueAfter) as it was, so wherever the edited nest sits one nest is
// recomputed and kNests-1 are served from cache. The first-nest edit is
// measured against the same session with loopGranularReuse=false — the
// procedure-granular reuse of the previous design, which recomputes every
// nest in the dirty procedure; the middle- and last-nest edits must cost
// what the first-nest edit costs.

constexpr int kNests = 24;

/// The kNests-nest procedure with a different constant in nest
/// `editedNest` (1-based; 0 edits none).
std::string manyLoopSource(int editedNest) {
  std::string src;
  src += "      subroutine kern(a, b, n)\n";
  src += "      integer n\n";
  src += "      real a(1000," + std::to_string(kNests) + ")\n";
  src += "      real b(1000," + std::to_string(kNests) + ")\n";
  src += "      real t\n";
  src += "      integer i, j, m\n";
  for (int k = 1; k <= kNests; ++k) {
    const int lbl = 100 * k;
    const std::string col = std::to_string(k);
    const std::string c = k == editedNest ? "3.0" : "1.0";
    src += "      do " + std::to_string(lbl) + " i = 1, n\n";
    src += "      do " + std::to_string(lbl + 1) + " j = 1, n\n";
    src += "      do " + std::to_string(lbl + 2) + " m = 1, n\n";
    src += "      t = a(m," + col + ") + " + c + "\n";
    src += "      b(m," + col + ") = t * 2.0\n";
    src += std::to_string(lbl + 2) + "   continue\n";
    src += std::to_string(lbl + 1) + "   continue\n";
    src += std::to_string(lbl) + "   continue\n";
  }
  src += "      end\n";
  return src;
}

std::string reportsOf(const SessionResult& r) {
  std::string out;
  for (const SessionLoopResult& loop : r.loops) {
    out += loop.report;
    out += loop.provenance;
  }
  return out;
}

struct LoopEditRun {
  bool ok = true;
  std::string error;
  double warmMs = 0;
  std::size_t loopSkips = 0;
  std::size_t loopExpansions = 0;  ///< traced runs only
  std::string reports;
};

/// Cold submit of the unedited procedure, then a timed warm submit with
/// nest `editedNest` edited. `traced` counts the warm submit's loop
/// expansions from its `summary.loop_expansion` spans.
LoopEditRun runLoopEdit(bool loopGranular, int threads, int editedNest = 1,
                        bool traced = false) {
  LoopEditRun out;
  AnalysisOptions options;
  options.loopGranularReuse = loopGranular;
  options.numThreads = threads;
  AnalysisSession session(options);
  // Every repetition starts from an empty verdict cache, so the timed warm
  // submit pays for the edited nest's queries instead of reusing an earlier
  // repetition's verdicts.
  QueryCache::global().clear();
  SessionResult cold = session.submit(manyLoopSource(/*editedNest=*/0));
  if (!cold.ok) {
    out.ok = false;
    out.error = "loop-edit cold submit failed:\n" + cold.error;
    return out;
  }
  obs::Tracer& tracer = obs::Tracer::global();
  if (traced) {
    tracer.clear();
    tracer.enable();
  }
  const auto t0 = std::chrono::steady_clock::now();
  SessionResult warm = session.submit(manyLoopSource(editedNest));
  out.warmMs =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  if (traced) {
    tracer.disable();
    for (const obs::TraceEvent& ev : tracer.snapshot())
      if (std::string(ev.category) == "summary.loop_expansion") ++out.loopExpansions;
    tracer.clear();
  }
  if (!warm.ok) {
    out.ok = false;
    out.error = "loop-edit warm submit failed:\n" + warm.error;
    return out;
  }
  out.loopSkips = warm.stats.loopSkips;
  out.reports = reportsOf(warm);
  return out;
}

/// Comment-only edit: a comment line inserted above the first nest shifts
/// every loop's text down one line without changing any fingerprint. The
/// contract (gated Exact): dirty cone 0, and the cached reports cite the
/// post-edit lines.
bool runCommentEdit(std::size_t* dirty, std::string* error) {
  AnalysisSession session;
  SessionResult cold = session.submit(manyLoopSource(/*editedNest=*/0));
  if (!cold.ok) {
    *error = "comment-edit cold submit failed:\n" + cold.error;
    return false;
  }
  std::string shifted = manyLoopSource(/*editedNest=*/0);
  const std::string anchor = "      do 100 i";
  const std::size_t pos = shifted.find(anchor);
  if (pos == std::string::npos) {
    *error = "comment-edit anchor not found";
    return false;
  }
  shifted.insert(pos, "c shifted by one line\n");
  SessionResult warm = session.submit(shifted);
  if (!warm.ok) {
    *error = "comment-edit warm submit failed:\n" + warm.error;
    return false;
  }
  *dirty = warm.stats.dirty;
  // Every cached citation must point one line below its cold position.
  if (warm.loops.size() != cold.loops.size()) {
    *error = "comment-edit changed the loop count";
    return false;
  }
  for (std::size_t k = 0; k < warm.loops.size(); ++k)
    if (warm.loops[k].line != cold.loops[k].line + 1) {
      *error = "comment-edit line citation not remapped (loop " + std::to_string(k) + ": " +
               std::to_string(warm.loops[k].line) + " vs cold " +
               std::to_string(cold.loops[k].line) + ")";
      return false;
    }
  return true;
}

/// Stationary stream: two full cycles of {edit nest k, revert} over every
/// nest, in one session. The second cycle repeats texts the first already
/// analyzed, so a warm session in its steady state re-derives only cached
/// work: it interns no new expression and no new symbol (gated Exact 0).
struct StationaryRun {
  bool ok = true;
  std::string error;
  std::size_t exprGrowth = 0;
  std::size_t symbolGrowth = 0;
  double cycleMs[2] = {0, 0};
};

StationaryRun runStationary() {
  StationaryRun out;
  AnalysisOptions options;
  options.numThreads = 1;
  AnalysisSession session(options);
  const std::string base = manyLoopSource(/*editedNest=*/0);
  if (!session.submit(base).ok) {
    out.ok = false;
    out.error = "stationary cold submit failed";
    return out;
  }
  std::size_t exprs[2] = {0, 0};
  std::size_t symbols[2] = {0, 0};
  for (int cycle = 0; cycle < 2; ++cycle) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int k = 1; k <= kNests; ++k)
      for (const std::string& text : {manyLoopSource(k), base})
        if (!session.submit(text).ok) {
          out.ok = false;
          out.error = "stationary submit failed (cycle " + std::to_string(cycle + 1) +
                      ", nest " + std::to_string(k) + ")";
          return out;
        }
    out.cycleMs[cycle] =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    exprs[cycle] = ExprArena::global().stats().distinct;
    symbols[cycle] = session.status().symbols;
  }
  out.exprGrowth = exprs[1] - exprs[0];
  out.symbolGrowth = symbols[1] - symbols[0];
  return out;
}

bench::BenchResult run() {
  constexpr int kRepeats = 5;
  bench::BenchResult result;

  std::vector<std::string> baseSources;
  std::vector<std::string> warmSources;
  std::string editedKernel;
  const std::vector<CorpusLoop>& corpus = perfectCorpus();
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    baseSources.push_back(corpus[k].source);
    // Edit exactly one kernel; every other kernel resubmits unchanged.
    if (k == 0) {
      warmSources.push_back(editLastProcedure(corpus[k].source));
      editedKernel = corpus[k].id;
      if (warmSources.back() == baseSources.back()) {
        result.fail("edit had no effect on kernel " + editedKernel);
        return result;
      }
    } else {
      warmSources.push_back(corpus[k].source);
    }
  }

  // Reference: a cold analysis of the edited sources, for the identity check.
  std::string coldEditedFingerprint;
  {
    std::vector<SessionResult> ref(warmSources.size());
    for (std::size_t k = 0; k < warmSources.size(); ++k) {
      AnalysisSession session;
      ref[k] = session.submit(warmSources[k]);
      if (!ref[k].ok) {
        result.fail("reference submit " + std::to_string(k) + " failed:\n" + ref[k].error);
        return result;
      }
    }
    coldEditedFingerprint = fingerprintOf(ref);
  }

  RunResult best;
  best.coldMs = 1e18;
  best.warmMs = 1e18;
  bool identical = true;
  for (int r = 0; r < kRepeats; ++r) {
    RunResult rr = runOnce(baseSources, warmSources);
    if (!rr.ok) {
      result.fail(rr.error);
      return result;
    }
    identical = identical && rr.warmFingerprint == coldEditedFingerprint;
    if (rr.warmMs < best.warmMs) {
      double coldMs = std::min(best.coldMs, rr.coldMs);
      best = rr;
      best.coldMs = coldMs;
    } else {
      best.coldMs = std::min(best.coldMs, rr.coldMs);
    }
  }

  std::printf("incremental sessions — perfect corpus, one edited kernel (%s)\n",
              editedKernel.c_str());
  std::printf("cold wall:   %.3f ms\n", best.coldMs);
  std::printf("warm wall:   %.3f ms  (%.2fx)\n", best.warmMs, best.coldMs / best.warmMs);
  std::printf("warm reuse:  %zu summaries reused, %zu recomputed, dirty cone %zu\n",
              best.warmReused, best.warmRecomputed, best.warmDirty);
  std::printf("warm identical to cold-of-edited: %s\n", identical ? "yes" : "NO");

  result.addConfig("corpus", "perfect (Table 1/2 kernels)");
  result.addConfig("edited_kernel", editedKernel);
  result.addConfig("edit", "CONTINUE inserted into the kernel's last procedure");
  result.add("cold_wall_ms", best.coldMs, bench::Direction::LowerIsBetter, 3.0, "ms");
  result.add("warm_wall_ms", best.warmMs, bench::Direction::LowerIsBetter, 3.0, "ms");
  result.add("warm_speedup", best.coldMs / best.warmMs, bench::Direction::HigherIsBetter, 1.0, "x")
      .gated = false;
  result.add("warm_summaries_reused", static_cast<double>(best.warmReused),
             bench::Direction::Exact);
  result.add("warm_summaries_recomputed", static_cast<double>(best.warmRecomputed),
             bench::Direction::Exact);
  result.add("warm_dirty_cone", static_cast<double>(best.warmDirty), bench::Direction::Exact);
  if (!identical) result.fail("warm reports diverge from a cold analysis of the edited sources");
  if (best.warmMs > best.coldMs) result.fail("warm re-analysis slower than cold analysis");

  // ---- summary-changing leaf edit ----
  // The cutoff must not fire when the summary does change: the dirty cone
  // is the leaf and its three transitive callers.
  {
    AnalysisSession session;
    SessionResult cold = session.submit(chainSource(100));
    SessionResult warm = session.submit(chainSource(50));
    AnalysisSession reference;
    SessionResult ref = reference.submit(chainSource(50));
    if (!cold.ok || !warm.ok || !ref.ok) {
      result.fail("summary-edit submit failed:\n" + cold.error + warm.error + ref.error);
      return result;
    }
    std::printf("summary-changing leaf edit: dirty cone %llu\n",
                static_cast<unsigned long long>(warm.stats.dirty));
    result.addConfig("summary_edit", "leaf loop bound 100 -> 50 in a main/top/mid/leaf chain");
    result.add("summary_edit_dirty_cone", static_cast<double>(warm.stats.dirty),
               bench::Direction::Exact);
    if (reportsOf(warm) != reportsOf(ref))
      result.fail("summary-edit warm reports diverge from a cold analysis of the edited source");
  }

  // ---- single-loop-edit scenario ----
  // Reference: a cold analysis of the edited source; warm runs at every
  // granularity and thread count must reproduce it byte for byte.
  std::string loopEditReference;
  {
    AnalysisSession session;
    SessionResult ref = session.submit(manyLoopSource(/*editedNest=*/1));
    if (!ref.ok) {
      result.fail("loop-edit reference submit failed:\n" + ref.error);
      return result;
    }
    loopEditReference = reportsOf(ref);
  }
  double bestLoopMs = 1e18;
  double bestUnitMs = 1e18;
  std::size_t loopSkips = 0;
  bool loopIdentical = true;
  for (int r = 0; r < kRepeats; ++r) {
    LoopEditRun granular = runLoopEdit(/*loopGranular=*/true, /*threads=*/1);
    if (!granular.ok) {
      result.fail(granular.error);
      return result;
    }
    LoopEditRun unitOnly = runLoopEdit(/*loopGranular=*/false, /*threads=*/1);
    if (!unitOnly.ok) {
      result.fail(unitOnly.error);
      return result;
    }
    bestLoopMs = std::min(bestLoopMs, granular.warmMs);
    bestUnitMs = std::min(bestUnitMs, unitOnly.warmMs);
    loopSkips = granular.loopSkips;
    loopIdentical = loopIdentical && granular.reports == loopEditReference &&
                    unitOnly.reports == loopEditReference;
  }
  // Determinism across execution options: the loop-granular warm run is
  // byte-identical at 4 and 8 threads too.
  for (int threads : {4, 8}) {
    LoopEditRun t = runLoopEdit(/*loopGranular=*/true, threads);
    if (!t.ok) {
      result.fail(t.error);
      return result;
    }
    loopIdentical = loopIdentical && t.reports == loopEditReference;
  }
  // Middle- and last-nest edits: the same work as the first-nest edit
  // (one nest's 3 loops re-expanded, every other nest reused), so within
  // 1.5x of its warm wall.
  struct Position {
    const char* name;
    int nest;
    double bestMs = 1e18;
    std::size_t expansions = 0;
    bool identical = true;
  };
  Position positions[] = {{"first", 1}, {"middle", kNests / 2}, {"last", kNests}};
  for (Position& pos : positions) {
    std::string reference;
    {
      AnalysisSession session;
      SessionResult ref = session.submit(manyLoopSource(pos.nest));
      if (!ref.ok) {
        result.fail("loop-edit reference submit failed:\n" + ref.error);
        return result;
      }
      reference = reportsOf(ref);
    }
    for (int r = 0; r <= kRepeats; ++r) {
      // The last repetition is traced and untimed: it counts expansions.
      const bool traced = r == kRepeats;
      LoopEditRun run = runLoopEdit(/*loopGranular=*/true, /*threads=*/1, pos.nest, traced);
      if (!run.ok) {
        result.fail(run.error);
        return result;
      }
      pos.identical = pos.identical && run.reports == reference;
      if (traced)
        pos.expansions = run.loopExpansions;
      else
        pos.bestMs = std::min(pos.bestMs, run.warmMs);
    }
    loopIdentical = loopIdentical && pos.identical;
  }
  const Position& first = positions[0];
  const Position& middle = positions[1];
  const Position& last = positions[2];

  std::size_t commentDirty = static_cast<std::size_t>(-1);
  std::string commentError;
  if (!runCommentEdit(&commentDirty, &commentError)) {
    result.fail(commentError);
    return result;
  }

  std::printf("single-loop edit — %d-nest procedure, first nest edited\n", kNests);
  std::printf("warm wall:   %.3f ms loop-granular vs %.3f ms unit-granular (%.2fx)\n", bestLoopMs,
              bestUnitMs, bestUnitMs / bestLoopMs);
  std::printf("loop skips:  %zu reused inside the dirty procedure\n", loopSkips);
  for (const Position& pos : positions)
    std::printf("%-6s nest (%2d) edit: %.3f ms, %zu loop expansion(s)\n", pos.name, pos.nest,
                pos.bestMs, pos.expansions);
  std::printf("comment-only edit dirty cone: %zu\n", commentDirty);

  result.addConfig("loop_edit", "constant changed inside the first of " + std::to_string(kNests) +
                                    " independent nests");
  result.add("single_loop_edit_warm_ms", bestLoopMs, bench::Direction::LowerIsBetter, 3.0, "ms");
  result
      .add("single_loop_edit_speedup_vs_unit", bestUnitMs / bestLoopMs,
           bench::Direction::HigherIsBetter, 0.5, "x")
      .minValue = 3.0;  // the §4.9 gate: >=3x over procedure-granular reuse
  result.add("single_loop_edit_loop_skips", static_cast<double>(loopSkips),
             bench::Direction::Exact);
  result.add("middle_nest_edit_warm_ms", middle.bestMs, bench::Direction::LowerIsBetter, 3.0, "ms");
  result.add("last_nest_edit_warm_ms", last.bestMs, bench::Direction::LowerIsBetter, 3.0, "ms");
  result.add("middle_nest_edit_loop_expansions", static_cast<double>(middle.expansions),
             bench::Direction::Exact);
  result.add("last_nest_edit_loop_expansions", static_cast<double>(last.expansions),
             bench::Direction::Exact);
  result
      .add("last_over_first_nest_edit_ms", last.bestMs / first.bestMs,
           bench::Direction::LowerIsBetter, 1.0, "x")
      .maxValue = 1.5;  // edit cost independent of the edit's position
  result.add("single_loop_edit_reports_identical", loopIdentical ? 1.0 : 0.0,
             bench::Direction::Exact);
  result.add("comment_edit_dirty", static_cast<double>(commentDirty), bench::Direction::Exact);
  if (!loopIdentical)
    result.fail("loop-granular warm reports diverge from a cold analysis of the edited source");

  // ---- stationary stream scenario ----
  StationaryRun stationary = runStationary();
  if (!stationary.ok) {
    result.fail(stationary.error);
    return result;
  }
  std::printf("stationary stream — 2 cycles of {edit nest k, revert} over %d nests\n", kNests);
  std::printf("cycle 2 growth: %zu expressions, %zu symbols; cycle 2 / cycle 1 wall %.2f\n",
              stationary.exprGrowth, stationary.symbolGrowth,
              stationary.cycleMs[1] / stationary.cycleMs[0]);
  result.addConfig("stationary", "2 cycles of {edit nest k, revert} over all " +
                                     std::to_string(kNests) + " nests");
  result.add("stationary_expr_growth", static_cast<double>(stationary.exprGrowth),
             bench::Direction::Exact);
  result.add("stationary_symbol_growth", static_cast<double>(stationary.symbolGrowth),
             bench::Direction::Exact);
  result
      .add("stationary_cycle2_over_cycle1_ms", stationary.cycleMs[1] / stationary.cycleMs[0],
           bench::Direction::LowerIsBetter, 1.0, "x")
      .gated = false;
  return result;
}

const bench::Registration reg{{"incremental", /*repetitions=*/1, /*warmup=*/0, run}};

}  // namespace
