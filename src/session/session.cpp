// AnalysisSession::submit — the incremental re-analysis pipeline.
//
// The submit flow is ordered so that every step that can fail (parse,
// sema, HSG structure checks) runs before any session state is touched;
// the remaining steps operate on content that already validated and cannot
// fail.
//
//   1. parse + fingerprint (pre-sema AST, SourceLoc-blind; per-item detail)
//      and the DO walk of every incoming procedure
//   2. sema, once, over copies of the persistent tables
//   3. diff into {unchanged, modified, added, removed}
//   4. flow graphs for every procedure this submit may re-summarize: the
//      edited and added ones and all their transitive callers
//   5. move the cached line citations of fingerprint-unchanged units to the
//      incoming DO lines, and match the graphed procedures' items
//      structurally for loop-granular reuse (DESIGN.md §4.9)
//   6. one analyzer over the incoming program, and the batch scheduler's
//      task graph with the session's plan: as each procedure's callees
//      publish, the plan seeds a still-valid unit's carried state whole, or
//      seeds the matched items whose callees kept their epochs,
//      re-summarizes, keeps the unit's epoch when what callers read came
//      out equal (early cutoff), and names the loops to analyze — the
//      unmatched ones plus each reused outermost loop whose ueAfter changed
//   7. unit table update in procedure order — each procedure's memoized
//      state moves back into its unit, re-summarized units record sema's
//      call edges and their callees' final epochs, the tables are adopted —
//      then stats; the program, sema maps, graphs and analyzer go out of
//      scope
#include "panorama/session/session.h"

#include <sstream>
#include <utility>

#include "panorama/analysis/driver.h"
#include "panorama/frontend/parser.h"
#include "panorama/obs/metrics.h"
#include "panorama/obs/trace.h"

namespace panorama {

AnalysisSession::AnalysisSession(AnalysisOptions options)
    : options_(options), ownedPool_(std::make_unique<ThreadPool>(options_.numThreads)),
      pool_(ownedPool_.get()) {}

AnalysisSession::AnalysisSession(AnalysisOptions options, ThreadPool* sharedPool)
    : options_(options), pool_(sharedPool) {}

AnalysisSession::~AnalysisSession() = default;

std::uint64_t AnalysisSession::summaryEpochOf(const std::string& name) const {
  auto it = units_.find(name);
  return it == units_.end() ? 0 : it->second.summaryEpoch;
}

void AnalysisSession::publishStatusLocked() {
  const Status s{epoch_, units_.size(), symbols_.size(), live_, fileSkips_};
  std::lock_guard<std::mutex> lock(statusMutex_);
  status_ = s;
}

AnalysisSession::Status AnalysisSession::status() const {
  std::lock_guard<std::mutex> lock(statusMutex_);
  return status_;
}

std::string AnalysisSession::composeLoopReport(const CachedLoop& cl) {
  return cl.procName + ": DO " + cl.doVar + " (line " + std::to_string(cl.line) +
         "): " + cl.reportTail;
}

AnalysisSession::CachedLoop AnalysisSession::cacheLoopAnalysis(const LoopAnalysis& la) {
  CachedLoop cl;
  cl.line = la.line;
  cl.classification = la.classification;
  cl.procName = la.procName;
  cl.doVar = la.loop ? la.loop->doVar : "?";
  // formatLoopAnalysis opens with exactly the header composeLoopReport
  // rebuilds from these fields; cache what follows it.
  cl.reportTail = formatLoopAnalysis(la).substr(composeLoopReport(cl).size());
  cl.provenance = formatProvenance(la);
  return cl;
}

SessionResult AnalysisSession::submit(const std::string& source) {
  std::lock_guard<std::mutex> lock(mutex_);

  // Whole-file fast path: a byte-identical resubmit can only diff to
  // "everything unchanged, dirty cone empty" — serve the cached reports
  // without parsing or per-procedure fingerprinting.
  const std::uint64_t sourceHash = store::fnv1a(source);
  if (live_ && hasSourceHash_ && sourceHash == lastSourceHash_) {
    SessionResult out = fileSkipLocked();
    publishStatusLocked();
    return out;
  }

  // 1. Parse; all remaining steps are frontend-neutral.
  DiagnosticEngine pdiags;
  std::optional<Program> parsed;
  {
    obs::Span parseSpan("frontend.parse", "session submit");
    parsed = parseProgram(source, pdiags);
  }
  if (!parsed) {
    SessionResult out;
    out.error = pdiags.str();
    return out;
  }
  SessionResult out = submitLocked(std::move(*parsed));
  if (out.ok) {
    lastSourceHash_ = sourceHash;
    hasSourceHash_ = true;
  }
  publishStatusLocked();
  return out;
}

SessionResult AnalysisSession::submit(Program program) {
  std::lock_guard<std::mutex> lock(mutex_);
  SessionResult out = submitLocked(std::move(program));
  // A Program submit has no source text; the next text submit must take the
  // full diff path.
  if (out.ok) hasSourceHash_ = false;
  publishStatusLocked();
  return out;
}

void AnalysisSession::appendCachedLoops(std::vector<SessionLoopResult>& out) const {
  for (const std::string& name : order_) {
    for (const CachedLoop& cl : units_.at(name).loops) {
      SessionLoopResult r;
      r.procName = cl.procName;
      r.line = cl.line;
      r.classification = cl.classification;
      r.report = composeLoopReport(cl);
      r.provenance = cl.provenance;
      out.push_back(std::move(r));
    }
  }
}

SessionResult AnalysisSession::fileSkipLocked() {
  obs::Span span("session", "session.file_skip");
  ++fileSkips_;

  SessionResult out;
  SessionStats stats;
  stats.epoch = epoch_;
  stats.warm = stats.epoch > 1;
  stats.procedures = units_.size();
  stats.unchanged = stats.procedures;
  stats.summariesReused = stats.procedures;
  stats.unitsCleanLoops = stats.procedures;
  stats.fileSkips = fileSkips_;
  appendCachedLoops(out.loops);
  stats.loopsReused = out.loops.size();
  out.ok = true;
  out.stats = stats;
  lastStats_ = stats;
  if (span.active()) {
    span.arg("epoch", std::to_string(stats.epoch));
    span.arg("skips", std::to_string(fileSkips_));
  }
  return out;
}

namespace {

/// Appends the walk indices (collectDoLoops order, counted from `next`) of
/// the DO statements in `s` that no other DO encloses: the loops whose
/// ueAfter the enclosing procedure's own walk writes.
void outermostLoops(const Stmt& s, std::size_t& next, bool nested, std::vector<std::size_t>& out) {
  if (s.kind == Stmt::Kind::Do) {
    if (!nested) out.push_back(next);
    ++next;
    nested = true;
  }
  for (const StmtPtr& c : s.thenBody) outermostLoops(*c, next, nested, out);
  for (const StmtPtr& c : s.elseBody) outermostLoops(*c, next, nested, out);
  for (const StmtPtr& c : s.body) outermostLoops(*c, next, nested, out);
}

/// What a caller reads of a callee's summary at SUM_call.
bool sameForCallers(const ProcSummary& a, const ProcSummary& b) {
  return a.mod.gars() == b.mod.gars() && a.ue.gars() == b.ue.gars() &&
         a.de.gars() == b.de.gars() && a.modifiedScalars == b.modifiedScalars;
}

}  // namespace

SessionResult AnalysisSession::submitLocked(Program incoming) {
  obs::Span span("session", "session.reanalyze");
  SessionResult out;

  // 1. Fingerprint before sema touches the AST (sema reclassifies intrinsic
  // refs in place; fingerprints must be comparable across submits). The
  // detail carries the per-item hashes loop-granular reuse matches on; the
  // DO walk gives every loop the index carried summaries are keyed by.
  struct Incoming {
    ProcFingerprintDetail fp;
    std::vector<const Stmt*> dos;
  };
  std::map<std::string, Incoming> in;
  {
    obs::Span fpSpan("session.fingerprint", "session submit");
    for (const Procedure& p : incoming.procedures)
      in[p.name] = {fingerprintProcedureDetail(p), collectDoLoops(p.body)};
  }

  // 2. Sema against *copies* of the persistent tables: a failure here (or
  // at the flow graphs below) leaves the session state untouched, and the
  // tables come back inside the result, adopted once the submit is done.
  std::optional<SemaResult> sema;
  {
    obs::Span semaSpan("frontend.sema", "session submit");
    DiagnosticEngine diags;
    sema = analyze(incoming, diags, symbols_, arrays_);
    if (!sema) {
      out.error = diags.str();
      return out;
    }
  }

  const bool fullInvalidation = !live_;
  const std::uint64_t newEpoch = epoch_ + 1;

  SessionStats stats;
  stats.epoch = newEpoch;
  stats.warm = newEpoch > 1 && !fullInvalidation;
  stats.fullInvalidation = fullInvalidation;
  stats.procedures = incoming.procedures.size();

  /// An incoming item whose subtree matches a previous epoch's item.
  struct ItemMatch {
    std::size_t oldIdx;
    std::size_t newBegin;                ///< the item's first walk index
    std::vector<std::size_t> outermost;  ///< walk indices its procedure's walk reaches
  };
  /// One incoming procedure: what the diff knows before the task graph, and
  /// what its plan decides inside it.
  struct Work {
    const Incoming* in = nullptr;
    Unit* old = nullptr;  ///< the previous epoch's unit, if any
    /// Fingerprint unchanged and the carried state consistent: the unit is
    /// clean unless a callee's summary epoch moves.
    bool fits = false;
    UnitInvalidation why;  ///< the cause, once it is re-summarized
    std::vector<ItemMatch> matches;
    // Written by the procedure's plan; read by its callers' plans (which
    // the scheduler spawns after it) and after the graph.
    bool clean = false;
    bool cutoff = false;  ///< re-summarized, and what callers read is unchanged
    std::uint64_t postEpoch = 0;
    std::map<std::size_t, CachedLoop> reused;  ///< served verdicts by walk index
    std::vector<std::size_t> ueAfterChanged;   ///< reused loops re-analyzed
  };
  std::map<std::string, Work> work;
  std::vector<std::pair<const Procedure*, Work*>> procs;  ///< source order

  Hsg hsg;
  {
    obs::Span diffSpan("session.diff", "session submit");

    // 3. Diff against the previous epoch's units. A fingerprint-unchanged
    // unit's carried state fits when it holds a summary, one cached report
    // per DO statement, and the call edges and callee epochs the unit table
    // agrees on; anything else comes only from a foreign snapshot.
    for (const Procedure& p : incoming.procedures) {
      Work& w = work[p.name];
      procs.emplace_back(&p, &w);
      w.in = &in.at(p.name);
      auto it = units_.find(p.name);
      if (it == units_.end()) {
        ++stats.added;
        w.why = fullInvalidation
                    ? UnitInvalidation{p.name, "first-submit", "no prior session state"}
                    : UnitInvalidation{p.name, "added", "no unit on record"};
        continue;
      }
      w.old = &it->second;
      if (w.old->fp != w.in->fp.whole) {
        ++stats.modified;
        w.why = {p.name, "fingerprint", "content fingerprint changed"};
        continue;
      }
      ++stats.unchanged;
      const Unit& u = *w.old;
      std::set<std::string> callees;
      for (const Procedure* callee : sema->of(p).callees) callees.insert(callee->name);
      w.fits = u.memo.summary && u.loops.size() == w.in->dos.size() && u.deps == callees;
      for (const std::string& dep : u.deps) {
        auto epoch = u.calleeEpochs.find(dep);
        auto du = units_.find(dep);
        w.fits = w.fits && epoch != u.calleeEpochs.end() && du != units_.end() &&
                 du->second.summaryEpoch == epoch->second;
      }
      if (!w.fits)
        w.why = {p.name, "carried-state", "carried summaries do not fit the procedure"};
    }
    for (const auto& [name, unit] : units_) {
      (void)unit;
      if (!incoming.findProcedure(name)) ++stats.removed;
    }

    // 4. Flow graphs for every procedure this submit may re-summarize: one
    // whose carried state does not fit, and every caller of one (callees
    // come first in bottom-up order). A unit that stays clean never reaches
    // the summary code and leaves its graph unused.
    std::set<std::string> graphed;
    for (const Procedure* proc : sema->bottomUpOrder) {
      bool may = !work.at(proc->name).fits;
      for (const Procedure* callee : sema->of(*proc).callees)
        may = may || graphed.count(callee->name) != 0;
      if (may) graphed.insert(proc->name);
    }
    DiagnosticEngine diags;
    for (const Procedure& p : incoming.procedures) {
      if (!graphed.count(p.name)) continue;
      obs::Span hsgSpan("frontend.hsg", p.name);
      hsg.procs.emplace(p.name, buildProcedureHsg(p, diags));
    }
    if (diags.hasErrors()) {
      out.error = diags.str();
      return out;
    }

    // 5a. Line remap (DESIGN.md §4.9): an edit elsewhere in the file may
    // have shifted a fingerprint-unchanged procedure's text. Its DO walk
    // lines up with the cached reports, so the citations move to the
    // incoming DO lines without forfeiting any reuse.
    for (const auto& [proc, w] : procs) {
      if (!w->fits) continue;
      const std::vector<const Stmt*>& dos = w->in->dos;
      for (std::size_t k = 0; k < dos.size(); ++k) {
        CachedLoop& cl = w->old->loops[k];
        const int line = static_cast<int>(dos[k]->loc.line);
        if (line == cl.line) continue;
        stats.loopReuse.push_back({proc->name, line, "line-remap",
                                   "clean unit text shifted; line " + std::to_string(cl.line) +
                                       " -> " + std::to_string(line)});
        cl.line = line;
        ++stats.lineRemaps;
      }
    }

    // 5b. Loop-granular matching (DESIGN.md §4.9): each graphed unit's
    // top-level statements against its previous epoch's item records. An
    // item matches when the declaration frame is unchanged, its subtree
    // hash and DO count match, and under options.quantified the preceding
    // item matches too (the §5.2 counter idiom reads it). Its outermost
    // loops must be on the procedure's walk (not condensed or unreachable)
    // and have carried summaries, since the walk re-checks their ueAfter.
    // Matching is greedy in order; the plan drops a match whose callees'
    // epochs moved.
    if (!fullInvalidation && options_.loopGranularReuse) {
      for (const auto& [proc, w] : procs) {
        if (!w->old || !graphed.count(proc->name)) continue;
        const Unit& old = *w->old;
        const ProcFingerprintDetail& nd = w->in->fp;
        if (old.items.empty() || old.frameFp != nd.frame) continue;
        const HsgGraph& g = hsg.of(*proc).graph;
        std::set<const Stmt*> onWalk;
        for (int id : g.topoOrder())
          if (g.node(id).kind == HsgNode::Kind::Loop) onWalk.insert(g.node(id).loopStmt);
        std::size_t cursor = 0;
        std::size_t walk = 0;
        for (std::size_t j = 0; j < nd.items.size(); ++j) {
          const ItemFingerprint& ni = nd.items[j];
          ItemMatch m{0, walk, {}};
          outermostLoops(*proc->body[j], walk, false, m.outermost);
          if (ni.loopCount == 0) continue;  // only loop-bearing items carry cached verdicts
          bool reached = true;
          for (std::size_t at : m.outermost) reached = reached && onWalk.count(w->in->dos[at]);
          if (!reached) continue;
          for (std::size_t k = cursor; k < old.items.size(); ++k) {
            const ItemRecord& oi = old.items[k];
            // Equal hashes imply equal DO counts, barring a collision or a
            // foreign snapshot.
            if (oi.hash != ni.hash || oi.loopCount != ni.loopCount) continue;
            if (options_.quantified && oi.precedingHash != ni.precedingHash) continue;
            bool carried = true;
            for (std::size_t at : m.outermost) {
              const std::size_t from = oi.loopBegin + (at - m.newBegin);
              carried = carried && from < old.memo.loops.size() && old.memo.loops[from];
            }
            if (!carried) continue;
            m.oldIdx = k;
            w->matches.push_back(std::move(m));
            cursor = k + 1;
            break;
          }
        }
      }
    }
  }

  // 6. One analyzer over the incoming program and the scheduler's task
  // graph. Each procedure's plan runs once its callees' plans are done, so
  // the epochs it checks are this submit's final ones.
  SummaryAnalyzer analyzer(incoming, *sema, hsg, options_);
  auto publishedEpoch = [&](const std::string& name) -> std::uint64_t {
    auto it = work.find(name);
    return it == work.end() ? 0 : it->second.postEpoch;
  };
  const ProcPlan plan = [&](const Procedure& p) -> std::vector<const Stmt*> {
    Work& w = work.at(p.name);
    if (w.fits) {
      const std::string* moved = nullptr;
      for (const std::string& dep : w.old->deps)
        if (publishedEpoch(dep) != w.old->calleeEpochs.at(dep)) {
          moved = &dep;
          break;
        }
      if (!moved) {
        analyzer.seedProcedure(p, std::move(w.old->memo));
        w.clean = true;
        w.postEpoch = w.old->summaryEpoch;
        return {};
      }
      w.why = {p.name, "callee-epoch", "callee '" + *moved + "' summary changed"};
    }

    // Re-summarize. Each matched item whose callees kept their epochs hands
    // the analyzer its loop summaries, moved from the item's previous walk
    // positions to its new ones (sumLoop serves those from the memo instead
    // of re-expanding the bodies), and its cached reports, re-cited at the
    // incoming DO lines.
    const std::vector<const Stmt*>& dos = w.in->dos;
    SummaryAnalyzer::ProcSnapshot seed;
    seed.loops.resize(dos.size());
    std::vector<std::pair<std::size_t, GarList>> carriedUeAfter;
    for (const ItemMatch& m : w.matches) {
      const ItemRecord& oi = w.old->items[m.oldIdx];
      bool current = true;
      for (const auto& [callee, epoch] : oi.calleeEpochs)
        current = current && publishedEpoch(callee) == epoch;
      if (!current) continue;
      for (std::uint32_t t = 0; t < oi.loopCount; ++t) {
        const std::size_t at = m.newBegin + t;
        if (oi.loopBegin + t < w.old->memo.loops.size())
          seed.loops[at] = std::move(w.old->memo.loops[oi.loopBegin + t]);
        CachedLoop cl = std::move(w.old->loops[oi.loopBegin + t]);
        cl.line = static_cast<int>(dos[at]->loc.line);
        w.reused.emplace(at, std::move(cl));
      }
      for (std::size_t at : m.outermost) carriedUeAfter.emplace_back(at, seed.loops[at]->ueAfter);
    }
    analyzer.seedProcedure(p, std::move(seed));
    const ProcSummary& summary = analyzer.procSummary(p);

    // Early cutoff: callers read the frame and the summary, nothing else.
    w.cutoff = w.old && w.old->frameFp == w.in->fp.frame && w.old->memo.summary &&
               sameForCallers(*w.old->memo.summary, summary);
    w.postEpoch = w.cutoff ? w.old->summaryEpoch : newEpoch;

    // The walk rewrote every outermost loop's ueAfter; a reused verdict
    // stands only where the live-out probe reads what it read before.
    for (const auto& [at, before] : carriedUeAfter)
      if (analyzer.loopSummary(dos[at])->ueAfter.gars() != before.gars()) {
        w.reused.erase(at);
        w.ueAfterChanged.push_back(at);
      }
    std::vector<const Stmt*> loops;
    for (std::size_t k = 0; k < dos.size(); ++k)
      if (!w.reused.count(k)) loops.push_back(dos[k]);
    return loops;
  };
  std::vector<LoopAnalysis> fresh = analyzeProgramParallel(analyzer, *pool_, plan);

  // 7. Rebuild the unit table in procedure order: every unit takes its
  // procedure's memoized state back from the analyzer and the epoch its
  // plan published; clean units keep everything else; re-summarized units
  // take sema's call edges with their callees' final epochs and loop caches
  // interleaving reused and fresh verdicts in walk order. Item records are
  // refreshed for every unit from this submit's detail.
  obs::Span composeSpan("session.compose", "session submit");
  std::map<const Stmt*, const LoopAnalysis*> freshByStmt;
  for (const LoopAnalysis& la : fresh) freshByStmt.emplace(la.loop, &la);

  std::map<std::string, Unit> nextUnits;
  for (const auto& [proc, w] : procs) {
    const Procedure& p = *proc;
    const Incoming& ni = *w->in;
    Unit u;
    u.fp = ni.fp.whole;
    u.frameFp = ni.fp.frame;
    u.summaryEpoch = w->postEpoch;
    u.memo = analyzer.takeProcedure(p);
    std::size_t freshHere = 0;
    if (w->clean) {
      ++stats.summariesReused;
      u.deps = std::move(w->old->deps);
      u.calleeEpochs = std::move(w->old->calleeEpochs);
      u.loops = std::move(w->old->loops);
      stats.loopsReused += u.loops.size();
    } else {
      ++stats.dirty;
      ++stats.summariesRecomputed;
      if (w->cutoff) ++stats.summariesUnchanged;
      stats.invalidations.push_back(w->why);
      for (const Procedure* callee : sema->of(p).callees) {
        u.deps.insert(callee->name);
        u.calleeEpochs[callee->name] = publishedEpoch(callee->name);
      }
      for (std::size_t k = 0; k < ni.dos.size(); ++k) {
        if (auto rl = w->reused.find(k); rl != w->reused.end()) {
          stats.loopReuse.push_back({p.name, rl->second.line, "item-match",
                                     "statement, frame, and callee epochs unchanged"});
          u.loops.push_back(std::move(rl->second));
          continue;
        }
        if (auto f = freshByStmt.find(ni.dos[k]); f != freshByStmt.end()) {
          u.loops.push_back(cacheLoopAnalysis(*f->second));
          ++freshHere;
        }
      }
      for (std::size_t at : w->ueAfterChanged)
        stats.loopReuse.push_back({p.name, static_cast<int>(ni.dos[at]->loc.line),
                                   "ue-after-changed",
                                   "loop summary reused; downstream exposure changed, so the "
                                   "verdict was re-analyzed"});
      stats.ueAfterRecomputed += w->ueAfterChanged.size();
      if (!w->reused.empty()) {
        ++stats.partialUnits;
        stats.loopSkips += w->reused.size();
      }
    }
    if (freshHere > 0)
      ++stats.unitsDirtyLoops;
    else
      ++stats.unitsCleanLoops;
    // Item records for the next submit's matcher; loop ranges partition
    // the walk-order cache.
    u.items.resize(ni.fp.items.size());
    std::uint32_t loopCursor = 0;
    for (std::size_t j = 0; j < ni.fp.items.size(); ++j) {
      const ItemFingerprint& item = ni.fp.items[j];
      ItemRecord& rec = u.items[j];
      rec.hash = item.hash;
      rec.precedingHash = item.precedingHash;
      rec.loopBegin = loopCursor;
      rec.loopCount = item.loopCount;
      loopCursor += item.loopCount;
      for (const std::string& callee : item.callees)
        rec.calleeEpochs.emplace(callee, publishedEpoch(callee));
    }
    nextUnits.emplace(p.name, std::move(u));
  }
  units_ = std::move(nextUnits);
  order_.clear();
  for (const Procedure* proc : sema->bottomUpOrder) order_.push_back(proc->name);
  symbols_ = std::move(sema->symbols);
  arrays_ = std::move(sema->arrays);
  epoch_ = newEpoch;
  live_ = true;

  appendCachedLoops(out.loops);
  stats.loopsReused += stats.loopSkips;
  stats.loopsRecomputed = fresh.size();
  stats.fileSkips = fileSkips_;

  out.ok = true;
  out.stats = stats;
  lastStats_ = stats;
  if (span.active()) {
    span.arg("epoch", std::to_string(stats.epoch));
    span.arg("dirty", std::to_string(stats.dirty));
    span.arg("reused", std::to_string(stats.summariesReused));
    span.arg("cutoffs", std::to_string(stats.summariesUnchanged));
    span.arg("loop_skips", std::to_string(stats.loopSkips));
    span.arg("full", stats.fullInvalidation ? "1" : "0");
  }
  return out;
}

void publishSessionMetrics(const SessionStats& stats) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.counter("session.epoch").set(stats.epoch);
  reg.counter("session.procedures").set(stats.procedures);
  reg.counter("session.unchanged").set(stats.unchanged);
  reg.counter("session.modified").set(stats.modified);
  reg.counter("session.added").set(stats.added);
  reg.counter("session.removed").set(stats.removed);
  reg.counter("session.dirty_cone").set(stats.dirty);
  reg.counter("session.summaries_reused").set(stats.summariesReused);
  reg.counter("session.summaries_recomputed").set(stats.summariesRecomputed);
  reg.counter("session.summaries_unchanged").set(stats.summariesUnchanged);
  reg.counter("session.loops_reused").set(stats.loopsReused);
  reg.counter("session.loops_recomputed").set(stats.loopsRecomputed);
  reg.counter("session.loop_skips").set(stats.loopSkips);
  reg.counter("session.units_partial").set(stats.partialUnits);
  reg.counter("session.units_clean_loops").set(stats.unitsCleanLoops);
  reg.counter("session.units_dirty_loops").set(stats.unitsDirtyLoops);
  reg.counter("session.line_remaps").set(stats.lineRemaps);
  reg.counter("session.ue_after_recomputed").set(stats.ueAfterRecomputed);
  reg.counter("session.file_skips").set(stats.fileSkips);
  reg.counter("session.full_invalidation").set(stats.fullInvalidation ? 1 : 0);
}

std::string formatSessionStats(const SessionStats& stats) {
  std::ostringstream os;
  os << "session epoch " << stats.epoch << (stats.fullInvalidation ? " (full invalidation)" : "")
     << ": " << stats.procedures << " procedure(s) -- " << stats.unchanged << " unchanged, "
     << stats.modified << " modified, " << stats.added << " added, " << stats.removed
     << " removed\n"
     << "dirty cone: " << stats.dirty << " procedure(s); summaries " << stats.summariesReused
     << " reused / " << stats.summariesRecomputed << " recomputed; loop analyses "
     << stats.loopsReused << " reused / " << stats.loopsRecomputed << " recomputed\n"
     << "session.units_clean/dirty_loops: " << stats.unitsCleanLoops << " unit(s) all-cached / "
     << stats.unitsDirtyLoops << " unit(s) recomputed\n";
  if (stats.summariesUnchanged > 0)
    os << "session.summaries_unchanged: " << stats.summariesUnchanged
       << " re-summarized procedure(s) kept their epoch; their callers stayed clean\n";
  if (stats.loopSkips > 0 || stats.partialUnits > 0)
    os << "session.loop_skips: " << stats.loopSkips << " loop(s) reused inside " << stats.partialUnits
       << " dirty unit(s)\n";
  if (stats.ueAfterRecomputed > 0)
    os << "session.ue_after_recomputed: " << stats.ueAfterRecomputed
       << " reused loop(s) re-analyzed for a changed downstream exposure\n";
  if (stats.lineRemaps > 0)
    os << "line remaps: " << stats.lineRemaps
       << " cached loop citation(s) moved to post-edit lines\n";
  for (const LoopReuse& lr : stats.loopReuse)
    os << "session.loop_reuse_cause: " << lr.unit << " (line " << lr.line << "): " << lr.cause
       << " -- " << lr.detail << '\n';
  if (stats.fileSkips > 0)
    os << "file skips: " << stats.fileSkips << " byte-identical resubmit(s) served without diffing\n";
  return os.str();
}

}  // namespace panorama
