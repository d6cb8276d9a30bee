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
//   4. reuse decision: start from the fingerprint-unchanged units whose
//      carried summaries fit the incoming procedure and prune to a fixpoint
//      over the summary dependency graph (callee dirty ⇒ caller dirty)
//   5. flow graphs for the dirty procedures only
//   6. move the cached line citations of fingerprint-unchanged units to the
//      incoming DO lines, and match the dirty procedures' items for
//      loop-granular reuse (DESIGN.md §4.9)
//   7. one analyzer over the incoming program, seeded with the clean units'
//      carried state and the matched items' loop summaries, both by DO walk
//      index
//   8. analyzeProgramParallel over the dirty procedures' *unmatched* loops
//      only (its summary tasks find seeded procedures in the memo, and
//      seeded loops skip re-expansion); every other loop report comes from
//      the unit cache
//   9. unit table update — each procedure's memoized state moves back into
//      its unit, dirty units record sema's call edges as their deps, the
//      tables are adopted — then stats; the program, sema maps, graphs and
//      analyzer go out of scope
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
  std::optional<Program> parsed = parseProgram(source, pdiags);
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
  for (const Procedure& p : incoming.procedures)
    in[p.name] = {fingerprintProcedureDetail(p), collectDoLoops(p.body)};

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

  // 3. Diff against the previous epoch's units.
  std::set<std::string> unchangedSet;
  for (const Procedure& p : incoming.procedures) {
    auto it = units_.find(p.name);
    if (it == units_.end()) {
      ++stats.added;
    } else if (it->second.fp != in.at(p.name).fp.whole) {
      ++stats.modified;
    } else {
      ++stats.unchanged;
      unchangedSet.insert(p.name);
    }
  }
  for (const auto& [name, unit] : units_) {
    (void)unit;
    if (!incoming.findProcedure(name)) ++stats.removed;
  }

  // 4. Reuse decision. Start optimistic (every fingerprint-unchanged unit
  // whose carried state fits the incoming procedure: a summary, and one
  // cached report per DO statement — anything else comes only from a
  // foreign snapshot) and prune to a fixpoint: a unit stays clean only
  // while every callee it folded in at SUM_call is itself clean at the
  // recorded summary epoch.
  std::set<std::string> clean;
  std::map<std::string, UnitInvalidation> pruned;  ///< unchanged yet dirty unit -> why
  if (!fullInvalidation) {
    for (const std::string& name : unchangedSet) {
      const Unit& u = units_.at(name);
      if (u.memo.summary && u.loops.size() == in.at(name).dos.size())
        clean.insert(name);
      else
        pruned.emplace(name, UnitInvalidation{name, "carried-state",
                                              "carried summaries do not fit the procedure"});
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (auto it = clean.begin(); it != clean.end();) {
        const Unit& u = units_.at(*it);
        bool valid = true;
        std::string why;
        for (const std::string& dep : u.deps) {
          auto du = units_.find(dep);
          auto de = u.calleeEpochs.find(dep);
          if (du == units_.end()) {
            why = "callee '" + dep + "' left the unit table";
          } else if (!clean.count(dep)) {
            why = "callee '" + dep + "' is dirty";
          } else if (de == u.calleeEpochs.end() || du->second.summaryEpoch != de->second) {
            why = "callee '" + dep + "' summary epoch changed";
          } else {
            continue;
          }
          valid = false;
          break;
        }
        if (valid) {
          ++it;
        } else {
          pruned.emplace(*it, UnitInvalidation{*it, "callee-epoch", std::move(why)});
          it = clean.erase(it);
          changed = true;
        }
      }
    }
  }
  stats.dirty = incoming.procedures.size() - clean.size();
  stats.summariesReused = clean.size();
  stats.summariesRecomputed = stats.dirty;

  // 5. Flow graphs for the procedures this submit re-summarizes; clean ones
  // never reach the summary code, so they need none.
  Hsg hsg;
  {
    DiagnosticEngine diags;
    for (const Procedure& p : incoming.procedures) {
      if (clean.count(p.name)) continue;
      obs::Span hsgSpan("frontend.hsg", p.name);
      hsg.procs.emplace(p.name, buildProcedureHsg(p, diags));
    }
    if (diags.hasErrors()) {
      out.error = diags.str();
      return out;
    }
  }

  // 6a. Line remap (DESIGN.md §4.9): an edit elsewhere in the file may have
  // shifted a fingerprint-unchanged procedure's text. Its DO walk lines up
  // with the cached reports, so the citations move to the incoming DO
  // lines without forfeiting any reuse.
  if (!fullInvalidation) {
    for (const Procedure& p : incoming.procedures) {
      if (!unchangedSet.count(p.name)) continue;
      Unit& u = units_.at(p.name);
      const std::vector<const Stmt*>& dos = in.at(p.name).dos;
      if (dos.size() != u.loops.size()) continue;  // a foreign snapshot; never our own
      for (std::size_t k = 0; k < dos.size(); ++k) {
        const int line = static_cast<int>(dos[k]->loc.line);
        if (line == u.loops[k].line) continue;
        stats.loopReuse.push_back({p.name, line, "line-remap",
                                   "clean unit text shifted; line " +
                                       std::to_string(u.loops[k].line) + " -> " +
                                       std::to_string(line)});
        u.loops[k].line = line;
        ++stats.lineRemaps;
      }
    }
  }

  // 6b. Loop-granular reuse (DESIGN.md §4.9): match each dirty unit's
  // top-level statements against its previous epoch's item records. An item
  // is served from cache when (a) the declaration frame is unchanged, (b)
  // its subtree hash and suffix hash match (the suffix feeds ueAfter, the
  // copy-out/live-out probe), (c) under options.quantified the immediately
  // preceding item matches too (the §5.2 counter idiom reads it), and (d)
  // every callee summary epoch its verdicts read is unchanged. Matching is
  // greedy in-order; the callee epochs an item may read are validated
  // against the epochs callees will hold *after* this submit.
  struct ItemMatch {
    std::size_t oldIdx;
    std::size_t newIdx;
  };
  std::map<std::string, std::vector<ItemMatch>> matchedByProc;
  auto postEpochOf = [&](const std::string& name) -> std::uint64_t {
    if (clean.count(name)) return units_.at(name).summaryEpoch;
    return in.count(name) ? newEpoch : 0;
  };
  if (!fullInvalidation && options_.loopGranularReuse) {
    for (const Procedure& p : incoming.procedures) {
      if (clean.count(p.name)) continue;
      auto uit = units_.find(p.name);
      if (uit == units_.end()) continue;  // added: nothing to reuse
      const Unit& old = uit->second;
      const ProcFingerprintDetail& nd = in.at(p.name).fp;
      if (old.items.empty() || old.frameFp != nd.frame) continue;
      std::vector<ItemMatch> matches;
      std::size_t cursor = 0;
      for (std::size_t j = 0; j < nd.items.size(); ++j) {
        const ItemFingerprint& ni = nd.items[j];
        if (ni.loopCount == 0) continue;  // only loop-bearing items carry cached verdicts
        for (std::size_t k = cursor; k < old.items.size(); ++k) {
          const ItemRecord& oi = old.items[k];
          // Equal hashes imply equal DO counts, barring a collision or a
          // foreign snapshot.
          if (oi.hash != ni.hash || oi.suffixHash != ni.suffixHash || oi.loopCount != ni.loopCount)
            continue;
          if (options_.quantified && oi.precedingHash != ni.precedingHash) continue;
          bool epochsValid = true;
          for (const auto& [callee, epoch] : oi.calleeEpochs)
            if (postEpochOf(callee) != epoch) {
              epochsValid = false;
              break;
            }
          if (!epochsValid) break;  // same callees for any later copy too
          matches.push_back({k, j});
          cursor = k + 1;
          break;
        }
      }
      if (!matches.empty()) matchedByProc.emplace(p.name, std::move(matches));
    }
  }

  // Attribute every dirty unit to its invalidation cause — the record the
  // cost profiler surfaces for warm runs.
  if (fullInvalidation) {
    for (const Procedure& p : incoming.procedures)
      stats.invalidations.push_back({p.name, "first-submit", "no prior session state"});
  } else {
    for (const Procedure& p : incoming.procedures) {
      if (clean.count(p.name)) continue;
      auto it = units_.find(p.name);
      if (it == units_.end()) {
        stats.invalidations.push_back({p.name, "added", "no unit on record"});
      } else if (it->second.fp != in.at(p.name).fp.whole) {
        stats.invalidations.push_back({p.name, "fingerprint", "content fingerprint changed"});
      } else if (auto pd = pruned.find(p.name); pd != pruned.end()) {
        stats.invalidations.push_back(pd->second);
      }
    }
  }

  // 7. One analyzer over the incoming program. Clean units hand it their
  // carried state whole; each matched item hands it its loop summaries,
  // moved from the item's previous walk positions to its new ones (sumLoop
  // serves those from the memo instead of re-expanding the bodies), and
  // its cached reports, re-cited at the incoming DO lines.
  SummaryAnalyzer analyzer(incoming, *sema, hsg, options_);
  std::map<std::string, std::map<std::size_t, CachedLoop>> reusedLoops;  ///< by walk index
  for (const Procedure& p : incoming.procedures) {
    auto uit = units_.find(p.name);
    if (uit == units_.end()) continue;
    Unit& old = uit->second;
    if (clean.count(p.name)) {
      analyzer.seedProcedure(p, std::move(old.memo));
      continue;
    }
    auto matches = matchedByProc.find(p.name);
    if (matches == matchedByProc.end()) continue;
    const Incoming& ni = in.at(p.name);
    std::vector<std::size_t> newBegin;  ///< each incoming item's first walk index
    std::size_t walk = 0;
    for (const ItemFingerprint& item : ni.fp.items) {
      newBegin.push_back(walk);
      walk += item.loopCount;
    }
    SummaryAnalyzer::ProcSnapshot seed;
    seed.loops.resize(ni.dos.size());
    std::map<std::size_t, CachedLoop>& reused = reusedLoops[p.name];
    for (const ItemMatch& m : matches->second) {
      const ItemRecord& oi = old.items[m.oldIdx];
      for (std::uint32_t t = 0; t < oi.loopCount; ++t) {
        const std::size_t at = newBegin[m.newIdx] + t;
        if (oi.loopBegin + t < old.memo.loops.size())
          seed.loops[at] = std::move(old.memo.loops[oi.loopBegin + t]);
        CachedLoop cl = std::move(old.loops[oi.loopBegin + t]);
        cl.line = static_cast<int>(ni.dos[at]->loc.line);
        reused.emplace(at, std::move(cl));
      }
    }
    analyzer.seedProcedure(p, std::move(seed));
  }

  // 8. The batch scheduler over the dirty procedures' unmatched loops
  // only: its summary tasks find the clean procedures' summaries in the
  // memo, so only the dirty cone does summary work.
  std::vector<LoopSite> items;
  for (const Procedure* proc : sema->bottomUpOrder) {
    if (clean.count(proc->name)) continue;
    const auto reused = reusedLoops.find(proc->name);
    const std::vector<const Stmt*>& dos = in.at(proc->name).dos;
    for (std::size_t k = 0; k < dos.size(); ++k)
      if (reused == reusedLoops.end() || !reused->second.count(k)) items.push_back({dos[k], proc});
  }
  std::vector<LoopAnalysis> dirtyLoops = analyzeProgramParallel(analyzer, *pool_, items);

  // 9. Rebuild the unit table: every unit takes its procedure's memoized
  // state back from the analyzer; dirty units take this epoch, fresh deps
  // (sema's call edges, ProcSymbols::callees) and loop caches interleaving
  // reused and fresh verdicts in walk order; clean units keep everything
  // else. Item records are refreshed for every unit from this submit's
  // detail.
  std::map<const Stmt*, const LoopAnalysis*> freshByStmt;
  for (std::size_t k = 0; k < items.size(); ++k) freshByStmt.emplace(items[k].loop, &dirtyLoops[k]);

  std::map<std::string, Unit> nextUnits;
  for (const Procedure& p : incoming.procedures) {
    const Incoming& ni = in.at(p.name);
    const bool isClean = clean.count(p.name) != 0;
    Unit u;
    u.fp = ni.fp.whole;
    u.frameFp = ni.fp.frame;
    u.memo = analyzer.takeProcedure(p);
    std::size_t reusedHere = 0;
    std::size_t freshHere = 0;
    if (isClean) {
      Unit& prevUnit = units_.at(p.name);
      u.summaryEpoch = prevUnit.summaryEpoch;
      u.deps = std::move(prevUnit.deps);
      u.calleeEpochs = std::move(prevUnit.calleeEpochs);
      u.loops = std::move(prevUnit.loops);
    } else {
      u.summaryEpoch = newEpoch;
      for (const Procedure* callee : sema->of(p).callees) u.deps.insert(callee->name);
      const auto reused = reusedLoops.find(p.name);
      for (std::size_t k = 0; k < ni.dos.size(); ++k) {
        if (reused != reusedLoops.end()) {
          if (auto rl = reused->second.find(k); rl != reused->second.end()) {
            stats.loopReuse.push_back({p.name, rl->second.line, "item-match",
                                       "statement, suffix, frame, and callee epochs unchanged"});
            u.loops.push_back(std::move(rl->second));
            ++reusedHere;
            continue;
          }
        }
        if (auto fresh = freshByStmt.find(ni.dos[k]); fresh != freshByStmt.end()) {
          u.loops.push_back(cacheLoopAnalysis(*fresh->second));
          ++freshHere;
        }
      }
    }
    // Item records for the next submit's matcher; loop ranges partition
    // the walk-order cache.
    u.items.resize(ni.fp.items.size());
    std::uint32_t loopCursor = 0;
    for (std::size_t j = 0; j < ni.fp.items.size(); ++j) {
      const ItemFingerprint& item = ni.fp.items[j];
      ItemRecord& rec = u.items[j];
      rec.hash = item.hash;
      rec.suffixHash = item.suffixHash;
      rec.precedingHash = item.precedingHash;
      rec.loopBegin = loopCursor;
      rec.loopCount = item.loopCount;
      loopCursor += item.loopCount;
      for (const std::string& callee : item.callees)
        if (in.count(callee)) rec.calleeEpochs[callee] = 0;  // filled below
    }
    if (reusedHere > 0) {
      ++stats.partialUnits;
      stats.loopSkips += reusedHere;
    }
    if (!isClean && freshHere > 0)
      ++stats.unitsDirtyLoops;
    else
      ++stats.unitsCleanLoops;
    if (isClean) stats.loopsReused += u.loops.size();
    nextUnits.emplace(p.name, std::move(u));
  }
  // Recomputed units record their callees' post-submit epochs — the validity
  // key future submits check transitively — and every unit's item records
  // adopt the same epochs (a reused item's callees are provably unchanged,
  // so old and new values coincide there).
  for (auto& [name, u] : nextUnits) {
    (void)name;
    if (u.summaryEpoch == newEpoch)
      for (const std::string& dep : u.deps)
        if (auto du = nextUnits.find(dep); du != nextUnits.end())
          u.calleeEpochs[dep] = du->second.summaryEpoch;
    for (ItemRecord& rec : u.items)
      for (auto& [callee, epoch] : rec.calleeEpochs)
        if (auto du = nextUnits.find(callee); du != nextUnits.end())
          epoch = du->second.summaryEpoch;
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
  stats.loopsRecomputed = items.size();
  stats.fileSkips = fileSkips_;

  out.ok = true;
  out.stats = stats;
  lastStats_ = stats;
  if (span.active()) {
    span.arg("epoch", std::to_string(stats.epoch));
    span.arg("dirty", std::to_string(stats.dirty));
    span.arg("reused", std::to_string(stats.summariesReused));
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
  reg.counter("session.loops_reused").set(stats.loopsReused);
  reg.counter("session.loops_recomputed").set(stats.loopsRecomputed);
  reg.counter("session.loop_skips").set(stats.loopSkips);
  reg.counter("session.units_partial").set(stats.partialUnits);
  reg.counter("session.units_clean_loops").set(stats.unitsCleanLoops);
  reg.counter("session.units_dirty_loops").set(stats.unitsDirtyLoops);
  reg.counter("session.line_remaps").set(stats.lineRemaps);
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
  if (stats.loopSkips > 0 || stats.partialUnits > 0)
    os << "session.loop_skips: " << stats.loopSkips << " loop(s) reused inside " << stats.partialUnits
       << " dirty unit(s)\n";
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
