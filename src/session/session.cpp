// AnalysisSession::submit — the incremental re-analysis pipeline.
//
// The submit flow is ordered so that every step that can fail (parse,
// sema, HSG structure checks) runs against the *incoming* program before
// any session state is touched; once the splice starts, the remaining
// steps operate on content that already validated and cannot fail.
//
//   1. parse + fingerprint (pre-sema AST, SourceLoc-blind; per-item detail)
//   2. validation sema over copies of the persistent tables; validation
//      HSG builds for every procedure whose fingerprint changed
//   3. diff into {unchanged, modified, added, removed}
//   4. reuse decision: prune the optimistic clean set to a fixpoint over
//      the summary dependency graph (callee dirty ⇒ caller dirty); then
//      patch SourceLocs of fingerprint-unchanged procedures from the
//      incoming parse and move their cached line citations, and match the
//      dirty procedures' items for loop-granular reuse (DESIGN.md §4.9)
//   5. snapshot clean units — and the matched items' loop summaries —
//      out of the previous analyzer, drop it
//   6. splice: unchanged procedures carry their previous AST objects into
//      the next Program (heap statements stay put), dirty ones take the
//      incoming AST
//   7. real sema against the persistent tables (append-only ⇒ stable ids)
//   8. HSG: move + proc-pointer fixup for clean graphs, adopt the
//      freshly built graphs for dirty procedures
//   9. fresh analyzer seeded with the clean snapshots and the matched
//      items' loop summaries
//  10. analyzeProgramParallel over the dirty procedures' *unmatched* loops
//      only (its call-graph waves find seeded procedures in the memo, and
//      seeded loops skip re-expansion); every other loop report comes from
//      the unit cache
//  11. unit table update + stats/metrics
#include "panorama/session/session.h"

#include <algorithm>
#include <span>
#include <sstream>
#include <utility>

#include "panorama/analysis/driver.h"
#include "panorama/frontend/parser.h"
#include "panorama/obs/metrics.h"
#include "panorama/obs/trace.h"

namespace panorama {

AnalysisSession::AnalysisSession(AnalysisOptions options) : options_(options) {
  optionsKey_ = optionsKey(options_);
  ownedPool_ = std::make_unique<ThreadPool>(options_.numThreads);
  pool_ = ownedPool_.get();
}

AnalysisSession::AnalysisSession(AnalysisOptions options, ThreadPool* sharedPool)
    : options_(options) {
  optionsKey_ = optionsKey(options_);
  pool_ = sharedPool;
}

AnalysisSession::~AnalysisSession() = default;

std::uint64_t AnalysisSession::optionsKey(const AnalysisOptions& options) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(options.symbolicAnalysis);
  mix(options.ifConditions);
  mix(options.interprocedural);
  mix(options.quantified);
  mix(options.computeDE);
  mix(options.garSimplifier);
  // numThreads and loopGranularReuse are execution options: the driver
  // guarantees identical results across both.
  return h;
}

void AnalysisSession::setOptions(const AnalysisOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t key = optionsKey(options);
  const bool threadsChanged = options.numThreads != options_.numThreads;
  options_ = options;
  // units_ carries unitsOptionsKey_: after an ablation change the mismatch
  // with optionsKey_ makes the next submit a full invalidation. Memoized
  // query verdicts stay valid — their keys carry every knob they depend on.
  optionsKey_ = key;
  // With a shared pool the daemon owns concurrency; numThreads is advisory.
  if (threadsChanged && ownedPool_) {
    ownedPool_ = std::make_unique<ThreadPool>(options_.numThreads);
    pool_ = ownedPool_.get();
  }
}

void AnalysisSession::resetState() {
  analyzer_.reset();
  units_.clear();
  pendingSnapshots_.clear();
  program_ = Program{};
  sema_ = SemaResult{};
  hsg_ = Hsg{};
  live_ = false;
  hasSourceHash_ = false;
}

std::uint64_t AnalysisSession::summaryEpochOf(const std::string& name) const {
  auto it = units_.find(name);
  return it == units_.end() ? 0 : it->second.summaryEpoch;
}

void AnalysisSession::publishStatusLocked() {
  statusEpoch_.store(epoch_, std::memory_order_relaxed);
  statusUnits_.store(units_.size(), std::memory_order_relaxed);
  statusSymbols_.store(sema_.symbols.size(), std::memory_order_relaxed);
  statusLive_.store(live_, std::memory_order_relaxed);
  statusFileSkips_.store(fileSkips_, std::memory_order_relaxed);
}

AnalysisSession::Status AnalysisSession::status() const {
  Status s;
  s.epoch = statusEpoch_.load(std::memory_order_relaxed);
  s.units = statusUnits_.load(std::memory_order_relaxed);
  s.symbols = statusSymbols_.load(std::memory_order_relaxed);
  s.live = statusLive_.load(std::memory_order_relaxed);
  s.fileSkips = statusFileSkips_.load(std::memory_order_relaxed);
  return s;
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

  // Whole-file fast path: a byte-identical resubmit under unchanged options
  // can only diff to "everything unchanged, dirty cone empty" — serve the
  // cached reports without parsing or per-procedure fingerprinting.
  const std::uint64_t sourceHash = store::fnv1a(source);
  if (live_ && hasSourceHash_ && sourceHash == lastSourceHash_ &&
      optionsKey_ == unitsOptionsKey_) {
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

SessionResult AnalysisSession::fileSkipLocked() {
  obs::Span span("session", "session.file_skip");
  ++fileSkips_;

  SessionResult out;
  SessionStats stats;
  stats.epoch = epoch_;
  stats.procedures = program_.procedures.size();
  stats.unchanged = stats.procedures;
  stats.summariesReused = stats.procedures;
  stats.unitsCleanLoops = stats.procedures;
  stats.fileSkips = fileSkips_;
  for (const Procedure* proc : sema_.bottomUpOrder) {
    const Unit& u = units_.at(proc->name);
    for (const CachedLoop& cl : u.loops) {
      SessionLoopResult r;
      r.procName = cl.procName;
      r.line = cl.line;
      r.classification = cl.classification;
      r.report = composeLoopReport(cl);
      r.provenance = cl.provenance;
      out.loops.push_back(std::move(r));
      ++stats.loopsReused;
    }
  }
  out.ok = true;
  out.stats = stats;
  lastStats_ = stats;
  publishSessionMetrics(stats);
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
  // detail carries the per-item hashes loop-granular reuse matches on.
  std::map<std::string, ProcFingerprintDetail> fps;
  for (const Procedure& p : incoming.procedures) fps[p.name] = fingerprintProcedureDetail(p);

  // 2. Validation sema on the incoming program against *copies* of the
  // persistent tables. A failure here (or below) leaves the session state
  // untouched; success guarantees the post-splice sema on equivalent
  // content succeeds too.
  {
    DiagnosticEngine vdiags;
    SymbolTable symCopy = live_ ? sema_.symbols : SymbolTable{};
    ArrayTable arrCopy = live_ ? sema_.arrays : ArrayTable{};
    if (!analyze(incoming, vdiags, std::move(symCopy), std::move(arrCopy))) {
      out.error = vdiags.str();
      return out;
    }
  }

  const bool fullInvalidation = !live_ || optionsKey_ != unitsOptionsKey_;
  const std::uint64_t newEpoch = epoch_ + 1;

  SessionStats stats;
  stats.epoch = newEpoch;
  stats.fullInvalidation = fullInvalidation;
  stats.procedures = incoming.procedures.size();

  // 3. Diff against the previous epoch's units.
  std::set<std::string> unchangedSet;
  for (const Procedure& p : incoming.procedures) {
    auto it = units_.find(p.name);
    if (it == units_.end()) {
      ++stats.added;
    } else if (it->second.fp != fps.at(p.name).whole) {
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

  // Structural HSG validation for every procedure that will be rebuilt.
  // Built from the incoming AST, so the graphs stay valid after the splice
  // moves those procedures into program_ (heap statements do not move).
  std::map<std::string, ProcedureHsg> freshHsgs;
  {
    DiagnosticEngine hdiags;
    for (const Procedure& p : incoming.procedures)
      if (!unchangedSet.count(p.name)) freshHsgs.emplace(p.name, buildProcedureHsg(p, hdiags));
    if (hdiags.hasErrors()) {
      out.error = hdiags.str();
      return out;
    }
  }

  // 4. Reuse decision. Start optimistic (every fingerprint-unchanged unit)
  // and prune to a fixpoint: a unit stays clean only while every callee it
  // folded in at SUM_call is itself clean at the recorded summary epoch.
  std::set<std::string> clean;
  std::map<std::string, std::string> pruneDetail;  ///< fixpoint-pruned unit -> why
  if (!fullInvalidation) {
    clean = unchangedSet;
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
          pruneDetail.emplace(*it, std::move(why));
          it = clean.erase(it);
          changed = true;
        }
      }
    }
  }
  stats.dirty = incoming.procedures.size() - clean.size();
  stats.summariesReused = clean.size();
  stats.summariesRecomputed = stats.dirty;

  // 4a. Line remap (DESIGN.md §4.9): a fingerprint-unchanged procedure keeps
  // its previous AST, but an edit elsewhere in the file may have shifted its
  // text. Patch the kept AST's SourceLocs from the incoming parse in
  // lockstep and move the cached loop citations with them, so clean units
  // report post-edit positions without forfeiting any Stmt-keyed reuse.
  // (A lockstep mismatch is only possible on a fingerprint collision; the
  // unit then simply keeps its previous positions.)
  if (!fullInvalidation) {
    for (const Procedure& p : incoming.procedures) {
      if (!unchangedSet.count(p.name)) continue;
      Procedure* prev = const_cast<Procedure*>(program_.findProcedure(p.name));
      if (!prev || !remapSourceLocs(*prev, p)) continue;
      Unit& u = units_.at(p.name);
      std::vector<const Stmt*> loops = collectDoLoops(prev->body);
      if (loops.size() != u.loops.size()) continue;  // defensive; never with our own caches
      for (std::size_t k = 0; k < loops.size(); ++k) {
        const int line = static_cast<int>(loops[k]->loc.line);
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

  // 4b. Loop-granular reuse (the §4.9 tentpole): match each dirty unit's
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
  std::set<std::string> incomingNames;
  for (const Procedure& p : incoming.procedures) incomingNames.insert(p.name);
  auto postEpochOf = [&](const std::string& name) -> std::uint64_t {
    if (clean.count(name)) return units_.at(name).summaryEpoch;
    return incomingNames.count(name) ? newEpoch : 0;
  };
  if (!fullInvalidation && options_.loopGranularReuse) {
    for (const Procedure& p : incoming.procedures) {
      if (clean.count(p.name)) continue;
      auto uit = units_.find(p.name);
      if (uit == units_.end()) continue;  // added: nothing to reuse
      const Unit& old = uit->second;
      const ProcFingerprintDetail& nd = fps.at(p.name);
      if (old.items.empty() || old.frameFp != nd.frame) continue;
      std::vector<ItemMatch> matches;
      std::size_t cursor = 0;
      for (std::size_t j = 0; j < nd.items.size(); ++j) {
        const ItemFingerprint& ni = nd.items[j];
        if (!ni.hasLoop) continue;  // only loop-bearing items carry cached verdicts
        for (std::size_t k = cursor; k < old.items.size(); ++k) {
          const ItemRecord& oi = old.items[k];
          if (oi.hash != ni.hash || oi.suffixHash != ni.suffixHash || !oi.hasLoop) continue;
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
    const char* cause = !live_ ? "first-submit" : "options-change";
    const char* detail =
        !live_ ? "no prior session state" : "ablation-relevant analysis options changed";
    for (const Procedure& p : incoming.procedures)
      stats.invalidations.push_back({p.name, cause, detail});
  } else {
    for (const Procedure& p : incoming.procedures) {
      if (clean.count(p.name)) continue;
      auto it = units_.find(p.name);
      if (it == units_.end()) {
        stats.invalidations.push_back({p.name, "added", "no unit on record"});
      } else if (it->second.fp != fps.at(p.name).whole) {
        stats.invalidations.push_back({p.name, "fingerprint", "content fingerprint changed"});
      } else {
        auto pd = pruneDetail.find(p.name);
        stats.invalidations.push_back(
            {p.name, "callee-epoch", pd == pruneDetail.end() ? std::string() : pd->second});
      }
    }
  }

  // 5. Snapshot the clean units' memoized state — and the matched units'
  // loop summaries — out of the previous analyzer while its keys are still
  // the previous epoch's objects; the analyzer references
  // program_/sema_/hsg_ and must be gone before they are replaced.
  std::map<std::string, SummaryAnalyzer::ProcSnapshot> snapshots;
  std::map<std::string, SummaryAnalyzer::ProcSnapshot> partialSnaps;
  if (analyzer_) {
    for (const std::string& name : clean)
      if (const Procedure* prev = program_.findProcedure(name))
        snapshots.emplace(name, analyzer_->snapshotProcedure(*prev));
    for (const auto& [name, matches] : matchedByProc) {
      (void)matches;
      if (const Procedure* prev = program_.findProcedure(name))
        partialSnaps.emplace(name, analyzer_->snapshotProcedure(*prev));
    }
  } else {
    // A restored session has no analyzer yet; its snapshots were carried
    // from disk and wait in pendingSnapshots_ for exactly this seed step.
    for (const std::string& name : clean)
      if (auto it = pendingSnapshots_.find(name); it != pendingSnapshots_.end())
        snapshots.emplace(name, std::move(it->second));
    for (const auto& [name, matches] : matchedByProc) {
      (void)matches;
      if (auto it = pendingSnapshots_.find(name); it != pendingSnapshots_.end())
        partialSnaps.emplace(name, std::move(it->second));
    }
  }
  pendingSnapshots_.clear();
  analyzer_.reset();

  // 5a. Resolve the matched items against both epochs' ASTs while the
  // previous AST is still owned by program_: pair each matched item's DO
  // statements (pre-order) between the old and new subtree, carrying the
  // old loop summaries to seed and the cached reports to serve. A unit
  // whose fingerprint is unchanged (dirtied only through a callee epoch)
  // keeps its previous AST through the splice, so old and new statements
  // coincide there — and already carry remapped positions from step 4a.
  std::vector<std::pair<const Stmt*, LoopSummary>> loopSeeds;
  std::map<std::string, std::map<const Stmt*, CachedLoop>> reusedLoops;
  for (const auto& [name, matches] : matchedByProc) {
    const Procedure* oldProc = program_.findProcedure(name);
    const Procedure* newProc = incoming.findProcedure(name);
    if (!oldProc || !newProc) continue;
    const Unit& old = units_.at(name);
    const bool keepsOldAst = unchangedSet.count(name) != 0;
    std::map<const Stmt*, const LoopSummary*> oldSummaries;
    if (auto snap = partialSnaps.find(name); snap != partialSnaps.end())
      for (const auto& [stmt, ls] : snap->second.loops) oldSummaries.emplace(stmt, &ls);
    for (const ItemMatch& m : matches) {
      if (m.oldIdx >= oldProc->body.size()) continue;
      const ItemRecord& oi = old.items[m.oldIdx];
      std::vector<const Stmt*> oldDos =
          collectDoLoops(std::span(oldProc->body).subspan(m.oldIdx, 1));
      std::vector<const Stmt*> newDos =
          keepsOldAst ? oldDos : collectDoLoops(std::span(newProc->body).subspan(m.newIdx, 1));
      // Consistency guards (violable only via a fingerprint collision or a
      // foreign snapshot): the cached range and both subtrees must agree.
      if (oldDos.size() != newDos.size() || oi.loopCount != oldDos.size()) continue;
      if (oi.loopBegin + oi.loopCount > old.loops.size()) continue;
      for (std::size_t t = 0; t < oldDos.size(); ++t) {
        if (auto ls = oldSummaries.find(oldDos[t]); ls != oldSummaries.end())
          loopSeeds.emplace_back(newDos[t], *ls->second);
        CachedLoop cl = old.loops[oi.loopBegin + t];
        cl.line = static_cast<int>(newDos[t]->loc.line);
        reusedLoops[name].emplace(newDos[t], std::move(cl));
      }
    }
  }
  partialSnaps.clear();

  // 6. Splice. Order follows the incoming source; unchanged procedures
  // carry their previous AST (keeping Stmt-keyed caches valid), everything
  // else takes the incoming AST.
  {
    std::map<std::string, Procedure*> prev;
    for (Procedure& p : program_.procedures) prev.emplace(p.name, &p);
    Program next;
    next.procedures.reserve(incoming.procedures.size());
    for (Procedure& p : incoming.procedures) {
      auto it = unchangedSet.count(p.name) ? prev.find(p.name) : prev.end();
      next.procedures.push_back(std::move(it != prev.end() ? *it->second : p));
    }
    program_ = std::move(next);
  }

  // 7. Real sema against the persistent tables. Append-only interning keeps
  // every previously seen VarId/ArrayId stable, which is what lets GARs and
  // scalar sets cross epochs untouched. Validation already accepted this
  // content, so a failure here is an internal bug — drop to a cold state
  // rather than serve stale results.
  DiagnosticEngine rdiags;
  {
    SymbolTable symbols = live_ ? std::move(sema_.symbols) : SymbolTable{};
    ArrayTable arrays = live_ ? std::move(sema_.arrays) : ArrayTable{};
    std::optional<SemaResult> sr = analyze(program_, rdiags, std::move(symbols), std::move(arrays));
    if (!sr) {
      resetState();
      out.error = "internal error: post-splice sema failed\n" + rdiags.str();
      return out;
    }
    sema_ = std::move(*sr);
  }

  // 8. HSG: clean graphs move across (their nodes hold `const Stmt*` into
  // statements that survived the splice) with the owning-procedure pointer
  // rebound; dirty procedures adopt the validated fresh graphs.
  {
    Hsg next;
    for (Procedure& p : program_.procedures) {
      ProcedureHsg ph;
      if (auto fresh = freshHsgs.find(p.name); fresh != freshHsgs.end())
        ph = std::move(fresh->second);
      else if (auto old = hsg_.procs.find(p.name); old != hsg_.procs.end())
        ph = std::move(old->second);
      else
        ph = buildProcedureHsg(p, rdiags);  // unreachable; defensive
      ph.proc = &p;
      next.procs.emplace(p.name, std::move(ph));
    }
    hsg_ = std::move(next);
  }

  // 9. Fresh analyzer for this epoch, seeded with every clean snapshot
  // under the current epoch's procedure objects, plus the matched items'
  // loop summaries under the current epoch's DO statements (sumLoop serves
  // those from the memo instead of re-expanding the bodies).
  analyzer_ = std::make_unique<SummaryAnalyzer>(program_, sema_, hsg_, options_);
  for (auto& [name, snap] : snapshots)
    if (const Procedure* p = program_.findProcedure(name))
      analyzer_->seedProcedure(*p, std::move(snap));
  if (!loopSeeds.empty()) analyzer_->seedLoopSummaries(std::move(loopSeeds));

  // 10. The batch scheduler over the dirty procedures' unmatched loops
  // only: its call-graph waves find the clean procedures' summaries in the
  // memo, so only the dirty cone does summary work.
  std::vector<LoopSite> items;
  for (const Procedure* proc : sema_.bottomUpOrder) {
    if (clean.count(proc->name)) continue;
    const auto reused = reusedLoops.find(proc->name);
    for (const Stmt* s : collectDoLoops(proc->body)) {
      if (reused != reusedLoops.end() && reused->second.count(s)) continue;
      items.push_back({s, proc});
    }
  }
  std::vector<LoopAnalysis> dirtyLoops = analyzeProgramParallel(*analyzer_, *pool_, items);

  // 11. Rebuild the unit table: dirty units take this epoch, fresh deps
  // (SUM_call edges ∪ the items' resolved syntactic callees — seeded loops
  // skip SUM_call, so the syntactic set keeps clean-item dependencies on
  // record), and loop caches interleaving reused and fresh verdicts in walk
  // order; clean units keep everything. Item records are refreshed for
  // every unit from this submit's detail (incoming content ≡ kept content
  // for clean units).
  std::map<const Stmt*, const LoopAnalysis*> freshByStmt;
  for (std::size_t k = 0; k < items.size(); ++k) freshByStmt.emplace(items[k].loop, &dirtyLoops[k]);
  std::map<std::string, std::set<std::string>> deps = analyzer_->callDependencies();

  std::map<std::string, Unit> nextUnits;
  for (const Procedure& p : program_.procedures) {
    const ProcFingerprintDetail& nd = fps.at(p.name);
    const bool isClean = clean.count(p.name) != 0;
    Unit u;
    u.fp = nd.whole;
    u.frameFp = nd.frame;
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
      if (auto d = deps.find(p.name); d != deps.end()) u.deps = std::move(d->second);
      const auto reused = reusedLoops.find(p.name);
      for (const Stmt* s : collectDoLoops(p.body)) {
        if (reused != reusedLoops.end()) {
          if (auto rl = reused->second.find(s); rl != reused->second.end()) {
            stats.loopReuse.push_back({p.name, rl->second.line, "item-match",
                                       "statement, suffix, frame, and callee epochs unchanged"});
            u.loops.push_back(std::move(rl->second));
            ++reusedHere;
            continue;
          }
        }
        auto fresh = freshByStmt.find(s);
        if (fresh != freshByStmt.end()) {
          u.loops.push_back(cacheLoopAnalysis(*fresh->second));
          ++freshHere;
        }
      }
    }
    // Item records for the next submit's matcher. Loop ranges partition the
    // flat walk-order cache; a mismatched total (possible only for a
    // truncated foreign snapshot) disables item reuse rather than misfile.
    u.items.resize(nd.items.size());
    std::size_t loopCursor = 0;
    bool ranges = true;
    for (std::size_t j = 0; j < nd.items.size(); ++j) {
      ItemRecord& rec = u.items[j];
      rec.hash = nd.items[j].hash;
      rec.suffixHash = nd.items[j].suffixHash;
      rec.precedingHash = nd.items[j].precedingHash;
      rec.hasLoop = nd.items[j].hasLoop;
      rec.loopBegin = static_cast<std::uint32_t>(loopCursor);
      rec.loopCount =
          static_cast<std::uint32_t>(collectDoLoops(std::span(p.body).subspan(j, 1)).size());
      loopCursor += rec.loopCount;
      for (const std::string& callee : nd.items[j].callees)
        if (incomingNames.count(callee)) rec.calleeEpochs[callee] = 0;  // filled below
    }
    if (loopCursor != u.loops.size()) ranges = false;
    if (!ranges) u.items.clear();
    if (!isClean) {
      // Syntactic resolved callees keep the unit-level dependency edges
      // complete even where seeded loops skipped SUM_call.
      if (!nd.items.empty())
        for (const std::string& callee : nd.items.front().callees)
          if (incomingNames.count(callee) && callee != p.name) u.deps.insert(callee);
    }
    if (reusedHere > 0) {
      ++stats.partialUnits;
      stats.loopSkips += reusedHere;
    }
    if (!isClean && freshHere > 0)
      ++stats.unitsDirtyLoops;
    else
      ++stats.unitsCleanLoops;
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
  epoch_ = newEpoch;
  unitsOptionsKey_ = optionsKey_;
  live_ = true;

  // Assemble the report in the batch drivers' order: procedures bottom-up,
  // loops in walk order within each.
  for (const Procedure* proc : sema_.bottomUpOrder) {
    const Unit& u = units_.at(proc->name);
    const bool reused = clean.count(proc->name) != 0;
    for (const CachedLoop& cl : u.loops) {
      SessionLoopResult r;
      r.procName = cl.procName;
      r.line = cl.line;
      r.classification = cl.classification;
      r.report = composeLoopReport(cl);
      r.provenance = cl.provenance;
      out.loops.push_back(std::move(r));
      if (reused) ++stats.loopsReused;
    }
  }
  stats.loopsReused += stats.loopSkips;
  stats.loopsRecomputed = items.size();
  stats.fileSkips = fileSkips_;

  out.ok = true;
  out.stats = stats;
  lastStats_ = stats;
  publishSessionMetrics(stats);
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

obs::SessionReuse sessionReuseFor(const SessionStats& stats) {
  obs::SessionReuse out;
  out.epoch = stats.epoch;
  out.warm = stats.epoch > 1 && !stats.fullInvalidation;
  out.fullInvalidation = stats.fullInvalidation;
  out.procedures = stats.procedures;
  out.unchanged = stats.unchanged;
  out.modified = stats.modified;
  out.added = stats.added;
  out.removed = stats.removed;
  out.dirty = stats.dirty;
  out.summariesReused = stats.summariesReused;
  out.summariesRecomputed = stats.summariesRecomputed;
  out.loopsReused = stats.loopsReused;
  out.loopsRecomputed = stats.loopsRecomputed;
  out.loopSkips = stats.loopSkips;
  out.partialUnits = stats.partialUnits;
  out.unitsCleanLoops = stats.unitsCleanLoops;
  out.unitsDirtyLoops = stats.unitsDirtyLoops;
  out.lineRemaps = stats.lineRemaps;
  out.causes = stats.invalidations;
  out.loopCauses = stats.loopReuse;
  return out;
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
