// Incremental analysis sessions: the serving-system core that turns the
// batch pipeline (parse → sema → HSG → summaries → privatization) into a
// persistent service that recomputes only what changed between submits.
//
// Between submits a session holds exactly what a snapshot stores (store/,
// DESIGN.md §4.8): the persistent symbol/array tables, the bottom-up unit
// order, and one fingerprinted *unit* per procedure — its fingerprints,
// cached loop reports, per-item reuse records, and its memoized summaries
// (SummaryAnalyzer::ProcSnapshot, loop summaries keyed by DO walk index).
// It keeps no AST, sema maps, flow graphs or analyzer.
//
// On submit, the incoming program runs sema once against copies of the
// tables and diffs against the units ({unchanged, modified, added,
// removed}). Modified and added procedures, and every procedure that
// transitively calls one, get flow graphs before any state is touched; the
// batch scheduler's task graph then decides the rest as callees publish
// (DESIGN.md §4.4). A fingerprint-unchanged unit whose callees all kept
// the summary epochs it was computed against seeds its carried summaries
// into the analyzer and serves its formatted loop reports verbatim; any
// other unit is re-summarized. The analyzer's memoized state then moves
// back into the units and the submit's program, sema maps, graphs and
// analyzer are dropped.
//
// Validity of a unit's cached state is keyed on
//   (own content fingerprint, callee summary epochs).
// A unit's summary epoch is the submit at which what its callers read of it
// last changed: a re-summarized unit whose frame fingerprint and
// caller-visible summary (mod, ue, de, modifiedScalars; SUM_call) come out
// equal keeps its epoch, so its callers stay clean (early cutoff). A
// session's options are fixed at construction (restore adopts a snapshot's
// ablation switches together with its units), so only the first submit
// invalidates everything.
//
// Reuse is possible because all cached state is handle-based: GARs,
// SymExprs and Preds are 8-byte ids into process-global append-only arenas,
// VarId/ArrayId stay stable across submits because sema runs against the
// session's persistent tables, and loop summaries name their DO statement by
// its position in the procedure's DO walk, which a fingerprint-equal
// procedure shares.
//
// Inside a re-summarized unit, reuse is *loop-granular* (DESIGN.md §4.9): its
// body is diffed per top-level statement ("item"), and an item's loop
// summaries are seeded into the analyzer at the item's new walk positions
// when the item subtree, the declaration frame, and the summary epochs of
// the callees in the subtree are unchanged. Its cached verdicts are served
// too, unless the procedure's walk gives one of its outermost loops a new
// downstream exposure (ueAfter, the copy-out probe): that loop alone is
// re-analyzed. A one-loop edit in an N-loop procedure therefore recomputes
// one loop nest, not N, wherever the nest sits.
//
// Reports cite post-edit line numbers without forfeiting reuse: when a
// fingerprint-unchanged procedure's text merely shifted, the session reads
// the incoming parse's DO lines into the cached citations — report strings
// are cached headerless (reportTail) and the header is composed at emission.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "panorama/analysis/analysis.h"
#include "panorama/ast/fingerprint.h"
#include "panorama/obs/profile.h"
#include "panorama/store/format.h"
#include "panorama/support/thread_pool.h"

namespace panorama {

/// Why one unit landed in the dirty cone — the provenance record the cost
/// profiler renders for warm runs ("which edit cost me this recompute").
using UnitInvalidation = obs::InvalidationCause;

/// Why one loop inside a *dirty* unit was served from cache anyway — the
/// `session.loop_reuse_cause` provenance rendered by --stats/--explain.
using LoopReuse = obs::LoopReuseCause;

/// Per-submit recomputation accounting — the `session.*` metrics source and
/// the hook the lifecycle tests assert dirty-cone sizes through. The same
/// record a CostProfile embeds (obs sits below the session, so it owns the
/// type).
using SessionStats = obs::SessionReuse;

/// One analyzed DO loop, with the same formatted report a batch run prints.
struct SessionLoopResult {
  std::string procName;
  int line = 0;
  LoopClass classification = LoopClass::Serial;
  std::string report;      ///< formatLoopAnalysis output
  std::string provenance;  ///< formatProvenance output
};

struct SessionResult {
  bool ok = false;
  std::string error;  ///< parse/sema/HSG diagnostics when !ok
  std::vector<SessionLoopResult> loops;
  SessionStats stats;
};

class AnalysisSession {
 public:
  explicit AnalysisSession(AnalysisOptions options = {});
  /// Daemon-mode constructor: schedules analysis on `sharedPool` (not
  /// owned; must outlive the session) so concurrent client sessions share
  /// one pool instead of oversubscribing the machine; each submit waits on
  /// its own task group and runs only its own tasks. options.numThreads is
  /// then unused — the pool's owner controls concurrency.
  AnalysisSession(AnalysisOptions options, ThreadPool* sharedPool);
  ~AnalysisSession();
  AnalysisSession(const AnalysisSession&) = delete;
  AnalysisSession& operator=(const AnalysisSession&) = delete;

  /// Parses and analyzes `source` incrementally against the session state.
  /// A failed submit (parse/sema/HSG error) leaves the session exactly as
  /// it was — the previous epoch's units keep serving.
  ///
  /// Whole-file fast path: when `source` is byte-identical to the previous
  /// successful text submit, the submit skips parsing and per-procedure
  /// diffing entirely and serves every cached loop report — counted under
  /// `session.file_skips`.
  SessionResult submit(const std::string& source);

  /// Frontend-neutral entry point: analyzes an already-constructed pre-sema
  /// `Program` (from the F77 parser, the C-like frontend, or a
  /// ProgramBuilder) incrementally against the session state. The string
  /// overload is exactly parse + this. Fingerprints are structural and
  /// SourceLoc-blind, so a builder-constructed procedure that equals a
  /// parsed one diffs as unchanged — the two frontends share one cache.
  SessionResult submit(Program program);

  const AnalysisOptions& options() const { return options_; }

  /// Submit counter; 0 until the first successful submit.
  std::uint64_t epoch() const { return epoch_; }
  const SessionStats& lastStats() const { return lastStats_; }

  /// A point-in-time sample of the session's serving state — the daemon's
  /// `status` op reads every live session through this. Served from a copy
  /// that each mutating call publishes on exit under its own small mutex,
  /// never from the session mutex, so sampling cannot block behind an
  /// in-flight submit.
  struct Status {
    std::uint64_t epoch = 0;
    std::size_t units = 0;        ///< cached procedure units
    std::size_t symbols = 0;      ///< interned symbolic variables; flat once warm
    bool live = false;            ///< has a successfully analyzed program
    std::uint64_t fileSkips = 0;  ///< whole-file fast-path hits
  };
  Status status() const;

  /// The submit epoch at which what callers read of `name`'s summary, or
  /// its frame, last changed (0 if the unit is unknown). Lifecycle tests
  /// assert invalidation through this: a leaf edit that changes the leaf's
  /// summary bumps its own and every transitive caller's epoch while
  /// siblings keep theirs; one that leaves the summary equal bumps none.
  std::uint64_t summaryEpochOf(const std::string& name) const;

  // ----- on-disk persistence (store/, DESIGN.md §4.8) -----

  /// Serializes the live session — symbol/array tables, interned
  /// expressions and predicates with stable snapshot-local ids, and per unit
  /// (in bottom-up order) its fingerprints/epochs/dependency edges/cached
  /// reports/item records and memoized summaries — into a versioned,
  /// integrity-hashed snapshot at `path` (temp-file + rename, so a crash
  /// never leaves a torn file). Fails on a dead session or unwritable path.
  store::StoreResult save(const std::string& path) const;

  /// Replaces this session's state with a snapshot previously produced by
  /// save(). The next submit behaves exactly like a warm submit against the
  /// saved in-process session: byte-identical reports at any thread count.
  /// A truncated, corrupted, or version-mismatched snapshot fails with a
  /// structured diagnostic and leaves the session untouched (the same
  /// atomicity contract as a failed submit). The snapshot's ablation
  /// switches are adopted; the execution options (numThreads,
  /// loopGranularReuse) keep the session's current values.
  store::StoreResult restore(const std::string& path);

 private:
  /// One fingerprinted procedure unit and its cached analysis state.
  /// Reports are cached headerless: the `procName: DO var (line N): ` prefix
  /// is composed at emission from (procName, doVar, line), so a line-number
  /// remap is a field update, not a string rewrite.
  struct CachedLoop {
    int line = 0;
    LoopClass classification = LoopClass::Serial;
    std::string procName;
    std::string doVar;
    std::string reportTail;  ///< formatLoopAnalysis output minus the header prefix
    std::string provenance;
  };
  /// Per-top-level-statement reuse record (the loop-granular invalidation
  /// key, DESIGN.md §4.9). Items mirror fingerprintProcedureDetail().
  struct ItemRecord {
    Fingerprint hash = 0;
    Fingerprint precedingHash = 0;
    std::uint32_t loopBegin = 0;  ///< index range into Unit::loops (the DO walk)
    std::uint32_t loopCount = 0;  ///< 0: no cached verdicts to reuse
    /// Summary epochs of the procedures the item's subtree calls, as its
    /// loop summaries and verdicts read them.
    std::map<std::string, std::uint64_t> calleeEpochs;
  };
  struct Unit {
    Fingerprint fp = 0;
    Fingerprint frameFp = 0;         ///< declaration-frame hash (detail.frame)
    std::uint64_t summaryEpoch = 0;  ///< submit that last changed what callers read
    std::set<std::string> deps;      ///< callees: sema's call edges
    std::map<std::string, std::uint64_t> calleeEpochs;  ///< deps' epochs then
    std::vector<CachedLoop> loops;   ///< walk-order loop reports
    /// One per top-level body statement; empty disables item-granular reuse
    /// for this unit.
    std::vector<ItemRecord> items;
    /// The carried part of the procedure's analyzer slot: its summary and
    /// its loop summaries by DO walk index (no more entries than `loops`).
    SummaryAnalyzer::ProcSnapshot memo;
  };

  /// Copies epoch_/units_/symbols_/live_/fileSkips_ into status_; called
  /// (holding mutex_) at the end of every mutating entry point.
  void publishStatusLocked();

  /// The incremental pipeline proper; callers hold mutex_.
  SessionResult submitLocked(Program incoming);
  /// The byte-identical-resubmit fast path; callers hold mutex_ and have
  /// checked eligibility (live, same bytes).
  SessionResult fileSkipLocked();
  /// Every cached loop report, units in bottom-up order and loops in walk
  /// order within each — the batch drivers' report order.
  void appendCachedLoops(std::vector<SessionLoopResult>& out) const;

  /// `procName: DO var (line N): ` + reportTail — the inverse of the header
  /// split cacheLoopAnalysis performs.
  static std::string composeLoopReport(const CachedLoop& cl);
  /// Caches a fresh loop analysis headerless.
  static CachedLoop cacheLoopAnalysis(const LoopAnalysis& la);

  /// save()/restore() live in src/store/session_io.cpp (the serialization
  /// layer needs the privates; the session logic stays here).
  store::StoreResult saveLocked(const std::string& path) const;
  store::StoreResult restoreLocked(const std::string& path);

  /// One session-wide lock: submits and save/restore serialize against
  /// each other, so a snapshot taken under concurrent submits is always one
  /// consistent epoch.
  mutable std::mutex mutex_;

  AnalysisOptions options_;
  std::uint64_t epoch_ = 0;
  SessionStats lastStats_;

  /// Has a successfully analyzed (or restored) program.
  bool live_ = false;
  /// The persistent tables: each submit's sema interns into a copy that
  /// replaces them once the submit succeeds (append-only, so ids seen once
  /// stay stable).
  SymbolTable symbols_;
  ArrayTable arrays_;
  /// Unit names, callees before callers (the last sema's bottomUpOrder).
  std::vector<std::string> order_;
  /// pool_ is what the pipeline schedules on; it aliases ownedPool_ in the
  /// standalone case and the daemon's pool in the shared case.
  std::unique_ptr<ThreadPool> ownedPool_;
  ThreadPool* pool_ = nullptr;

  std::map<std::string, Unit> units_;

  /// Whole-file fast path: hash of the last successfully submitted source
  /// text (text submits only — Program submits clear it, their source is
  /// unknown).
  std::uint64_t lastSourceHash_ = 0;
  bool hasSourceHash_ = false;
  std::uint64_t fileSkips_ = 0;

  /// What status() returns; guarded by statusMutex_ alone.
  mutable std::mutex statusMutex_;
  Status status_;
};

/// Publishes a submit's counters as `session.*` metrics in the global
/// registry (dirty-cone size, summaries reused vs recomputed, ...). Sessions
/// never call it: the registry is process-wide, so only a caller that owns
/// its process (panorama_driver's session modes) publishes its one session.
void publishSessionMetrics(const SessionStats& stats);

/// Human-readable stats block for panorama_driver --reanalyze --stats.
std::string formatSessionStats(const SessionStats& stats);

}  // namespace panorama
