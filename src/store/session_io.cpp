// AnalysisSession::save / restore — the versioned on-disk session store
// (DESIGN.md §4.8). The payload is a flat little-endian section stream:
//
//   [options][session counters][symbol names]
//   [expression pool][array table][predicate pool]
//   [unit table, bottom-up: fingerprints, reports, item records, summaries]
//
// It holds exactly the session's state between submits — no AST: loop
// summaries are keyed by DO walk index, and the next submit's own parse
// supplies the statements they seed.
//
// Stable-id scheme: the process-global hash-cons arenas assign ids in
// arrival order, which differs run to run, so ids are NOT serialized.
// Instead every distinct expression/predicate reachable from the session is
// assigned a dense *snapshot-local* index in first-use order; all references
// in the file are those indices, and restore re-interns each value into the
// live arenas (append-only, so re-interning is idempotent). Symbol and
// array tables ARE dense and append-only, so their ids are serialized as-is
// and restore rebuilds the tables by interning names in id order.
//
// Restore is all-or-nothing: the payload is parsed and validated into
// locals (bounds-checked reader, canonical-form checks before anything is
// interned, every walk index and item range checked against its unit's
// report count); only after every step has succeeded is the session's state
// replaced by one block of moves. Any defect — truncation, bit rot, version
// skew, out-of-range index, non-canonical pool entry — yields a structured
// diagnostic and leaves the session exactly as it was.
#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "panorama/predicate/arena.h"
#include "panorama/session/session.h"
#include "panorama/symbolic/arena.h"

namespace panorama {

namespace {

using store::Reader;
using store::StoreResult;
using store::Writer;

// ----- writer side ---------------------------------------------------------

/// Dense snapshot-local indexing of the expressions/predicates the session
/// reaches. Pool entries are appended at first use; expressions carry no
/// internal references and predicates only reference expressions, so the
/// two pool streams never interleave inconsistently.
struct PoolWriter {
  Writer exprs;
  std::uint64_t exprCount = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> exprIndex;

  Writer preds;
  std::uint64_t predCount = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> predIndex;

  std::uint64_t expr(const SymExpr& e) {
    auto [it, inserted] = exprIndex.try_emplace(e.id(), exprCount);
    if (!inserted) return it->second;
    exprs.u8(e.isPoisoned() ? 1 : 0);
    exprs.u64(e.terms().size());
    for (const Term& t : e.terms()) {
      exprs.i64(t.coef);
      exprs.u64(t.vars.size());
      for (VarId v : t.vars) exprs.u32(v.value);
    }
    return exprCount++;
  }

  std::uint64_t pred(const Pred& p) {
    auto [it, inserted] = predIndex.try_emplace(p.id(), predCount);
    if (!inserted) return it->second;
    preds.u8(p.isUnknown() ? 1 : 0);
    preds.u64(p.clauses().size());
    for (const Disjunct& d : p.clauses()) {
      preds.u64(d.atoms.size());
      for (const Atom& a : d.atoms) atom(a);
    }
    return predCount++;
  }

  void atom(const Atom& a) {
    preds.u8(static_cast<std::uint8_t>(a.kind()));
    preds.u8(static_cast<std::uint8_t>(a.op()));
    preds.u8(a.logicalValue() ? 1 : 0);
    preds.u64(expr(a.expr()));
    preds.u32(a.logical().value);
    preds.u32(a.predArray().value);
    preds.u32(a.boundVar().value);
    preds.u64(expr(a.predRhs()));
    preds.u64(expr(a.forallLo()));
    preds.u64(expr(a.forallUp()));
  }

  void range(Writer& w, const SymRange& r) {
    w.u64(expr(r.lo));
    w.u64(expr(r.up));
    w.u64(expr(r.step));
  }

  void garList(Writer& w, const GarList& list) {
    w.u64(list.size());
    for (const Gar& g : list) {
      w.u64(pred(g.guard()));
      w.u32(g.region().array().value);
      w.u64(g.region().dims().size());
      for (const SymRange& d : g.region().dims()) range(w, d);
    }
  }

  void vars(Writer& w, const std::vector<VarId>& vs) {
    w.u64(vs.size());
    for (VarId v : vs) w.u32(v.value);
  }
};

void writeLoopSummary(Writer& w, PoolWriter& pools, const LoopSummary& ls) {
  w.u32(ls.bounds.index.value);
  w.u64(pools.expr(ls.bounds.lo));
  w.u64(pools.expr(ls.bounds.up));
  w.u64(pools.expr(ls.bounds.step));
  w.u8(ls.boundsKnown ? 1 : 0);
  w.u8(ls.prematureExit ? 1 : 0);
  pools.garList(w, ls.modIter);
  pools.garList(w, ls.ueIter);
  pools.garList(w, ls.modBefore);
  pools.garList(w, ls.modAfter);
  pools.garList(w, ls.deIter);
  pools.garList(w, ls.mod);
  pools.garList(w, ls.ue);
  pools.garList(w, ls.de);
  pools.garList(w, ls.ueAfter);
  pools.vars(w, ls.bodyAssignedScalars);
}

void writeProcSummary(Writer& w, PoolWriter& pools, const ProcSummary& s) {
  pools.garList(w, s.mod);
  pools.garList(w, s.ue);
  pools.garList(w, s.de);
  pools.garList(w, s.modAll);
  pools.garList(w, s.ueAll);
  pools.vars(w, s.modifiedScalars);
}

/// The summary flag, the summary (empty when absent), then the present loop
/// summaries as (walk index, summary) pairs in walk order.
void writeProcSnapshot(Writer& w, PoolWriter& pools, const SummaryAnalyzer::ProcSnapshot& snap) {
  w.u8(snap.summary ? 1 : 0);
  writeProcSummary(w, pools, snap.summary ? *snap.summary : ProcSummary{});
  w.u64(static_cast<std::uint64_t>(
      std::count_if(snap.loops.begin(), snap.loops.end(),
                    [](const std::optional<LoopSummary>& ls) { return ls.has_value(); })));
  for (std::uint32_t k = 0; k < snap.loops.size(); ++k) {
    if (!snap.loops[k]) continue;
    w.u32(k);
    writeLoopSummary(w, pools, *snap.loops[k]);
  }
}

// ----- reader side ---------------------------------------------------------

/// Snapshot-local pools plus the validation context (table sizes) every
/// reference is checked against before anything reaches the live arenas.
struct PoolReader {
  explicit PoolReader(Reader& reader) : r(reader) {}

  Reader& r;
  std::size_t symCount = 0;
  std::size_t arrayCount = 0;
  std::vector<SymExpr> exprs;
  std::vector<Pred> preds;

  /// A VarId field; invalid (UINT32_MAX) is permitted where noted.
  VarId var(bool allowInvalid) {
    VarId v{r.u32()};
    if (!r.ok()) return v;
    if (!v.isValid()) {
      if (!allowInvalid) r.fail("corrupted snapshot: invalid variable id");
      return v;
    }
    if (v.value >= symCount) r.fail("corrupted snapshot: variable id out of range");
    return v;
  }

  SymExpr exprAt(std::uint64_t idx) {
    if (!r.ok()) return SymExpr();
    if (idx >= exprs.size()) {
      r.fail("corrupted snapshot: expression index out of range");
      return SymExpr();
    }
    return exprs[static_cast<std::size_t>(idx)];
  }

  Pred predAt(std::uint64_t idx) {
    if (!r.ok()) return Pred();
    if (idx >= preds.size()) {
      r.fail("corrupted snapshot: predicate index out of range");
      return Pred();
    }
    return preds[static_cast<std::size_t>(idx)];
  }

  /// Reads the expression pool, enforcing the §3.1 canonical form *before*
  /// interning — the arenas are process-global and must never hold a
  /// non-canonical node, whatever the file claims.
  bool readExprPool() {
    const std::uint64_t n = r.count(9, "expression");
    exprs.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      const bool poisoned = r.u8() != 0;
      const std::uint64_t tn = r.count(16, "term");
      std::vector<Term> terms;
      terms.reserve(static_cast<std::size_t>(tn));
      for (std::uint64_t t = 0; t < tn && r.ok(); ++t) {
        Term term;
        term.coef = r.i64();
        if (r.ok() && term.coef == 0) {
          r.fail("corrupted snapshot: zero-coefficient term");
          break;
        }
        const std::uint64_t vn = r.count(4, "term variable");
        term.vars.reserve(static_cast<std::size_t>(vn));
        for (std::uint64_t k = 0; k < vn && r.ok(); ++k) {
          VarId v = var(/*allowInvalid=*/false);
          if (!term.vars.empty() && r.ok() && v < term.vars.back())
            r.fail("corrupted snapshot: term variables out of order");
          term.vars.push_back(v);
        }
        if (!terms.empty() && r.ok() && !monomialLess(terms.back().vars, term.vars))
          r.fail("corrupted snapshot: expression terms out of order");
        terms.push_back(std::move(term));
      }
      if (r.ok() && poisoned && !terms.empty())
        r.fail("corrupted snapshot: poisoned expression carries terms");
      if (!r.ok()) return false;
      exprs.push_back(internExpr(terms, poisoned));
    }
    return r.ok();
  }

  std::optional<Atom> readAtom() {
    const std::uint8_t kind = r.u8();
    const std::uint8_t op = r.u8();
    const bool value = r.u8() != 0;
    const SymExpr e = exprAt(r.u64());
    const VarId lvar = var(/*allowInvalid=*/true);
    const AtomArrayRef arr{r.u32()};
    const VarId bound = var(/*allowInvalid=*/true);
    const SymExpr rhs = exprAt(r.u64());
    const SymExpr lo = exprAt(r.u64());
    const SymExpr up = exprAt(r.u64());
    if (!r.ok()) return std::nullopt;
    if (kind > static_cast<std::uint8_t>(Atom::Kind::Forall)) {
      r.fail("corrupted snapshot: unknown atom kind");
      return std::nullopt;
    }
    auto requireArray = [&]() {
      if (arr == AtomArrayRef{} || arr.value >= arrayCount)
        r.fail("corrupted snapshot: atom array id out of range");
    };
    switch (static_cast<Atom::Kind>(kind)) {
      case Atom::Kind::Rel:
        if (op > static_cast<std::uint8_t>(RelOp::RNE)) {
          r.fail("corrupted snapshot: unknown relational operator");
          return std::nullopt;
        }
        // rel() re-canonicalizes (EQ/NE sign, LE tightening); idempotent on
        // honestly saved atoms, and re-normalizing is exactly what keeps a
        // tampered payload from planting a non-canonical atom.
        return Atom::rel(e, static_cast<RelOp>(op));
      case Atom::Kind::LogVar:
        if (!lvar.isValid()) {
          r.fail("corrupted snapshot: logical atom without a variable");
          return std::nullopt;
        }
        return Atom::logicalVar(lvar, value);
      case Atom::Kind::ArrayPred:
        requireArray();
        if (r.ok() && !lvar.isValid()) r.fail("corrupted snapshot: array predicate without a key");
        if (!r.ok()) return std::nullopt;
        return Atom::arrayPred(arr, lvar, e, rhs, value);
      case Atom::Kind::Forall:
        requireArray();
        if (r.ok() && (!lvar.isValid() || !bound.isValid()))
          r.fail("corrupted snapshot: malformed forall atom");
        if (!r.ok()) return std::nullopt;
        return Atom::forallPred(arr, lvar, bound, e, rhs, lo, up, value);
    }
    r.fail("corrupted snapshot: unknown atom kind");
    return std::nullopt;
  }

  bool readPredPool() {
    const std::uint64_t n = r.count(9, "predicate");
    preds.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      const bool unknown = r.u8() != 0;
      const std::uint64_t cn = r.count(8, "clause");
      std::vector<Disjunct> clauses;
      clauses.reserve(static_cast<std::size_t>(cn));
      for (std::uint64_t c = 0; c < cn && r.ok(); ++c) {
        const std::uint64_t an = r.count(41, "atom");
        Disjunct d;
        d.atoms.reserve(static_cast<std::size_t>(an));
        for (std::uint64_t a = 0; a < an && r.ok(); ++a) {
          std::optional<Atom> atom = readAtom();
          if (!atom) break;
          if (!d.atoms.empty() && Atom::compare(d.atoms.back(), *atom) >= 0) {
            r.fail("corrupted snapshot: clause atoms out of order");
            break;
          }
          d.atoms.push_back(std::move(*atom));
        }
        if (!clauses.empty() && r.ok() && Disjunct::compare(clauses.back(), d) >= 0)
          r.fail("corrupted snapshot: predicate clauses out of order");
        clauses.push_back(std::move(d));
      }
      if (!r.ok()) return false;
      preds.push_back(internPred(clauses, unknown));
    }
    return r.ok();
  }

  SymRange range() {
    SymRange out;
    out.lo = exprAt(r.u64());
    out.up = exprAt(r.u64());
    out.step = exprAt(r.u64());
    return out;
  }

  GarList garList() {
    GarList out;
    const std::uint64_t n = r.count(20, "region piece");
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      const Pred guard = predAt(r.u64());
      // A region is stored as its array and dims and re-interned here.
      const ArrayId array{r.u32()};
      if (r.ok() && (!array.isValid() || array.value >= arrayCount))
        r.fail("corrupted snapshot: region array id out of range");
      const std::uint64_t dn = r.count(24, "region dimension");
      std::vector<SymRange> dims;
      dims.reserve(static_cast<std::size_t>(dn));
      for (std::uint64_t d = 0; d < dn && r.ok(); ++d) dims.push_back(range());
      if (!r.ok()) break;
      out.addRaw(Gar::fromParts(guard, Region(array, dims)));
    }
    return out;
  }

  std::vector<VarId> vars(bool allowInvalid) {
    std::vector<VarId> out;
    const std::uint64_t n = r.count(4, "variable list entry");
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) out.push_back(var(allowInvalid));
    return out;
  }
};

LoopSummary readLoopSummary(PoolReader& pools) {
  LoopSummary ls;
  ls.bounds.index = pools.var(/*allowInvalid=*/true);
  ls.bounds.lo = pools.exprAt(pools.r.u64());
  ls.bounds.up = pools.exprAt(pools.r.u64());
  ls.bounds.step = pools.exprAt(pools.r.u64());
  ls.boundsKnown = pools.r.u8() != 0;
  ls.prematureExit = pools.r.u8() != 0;
  ls.modIter = pools.garList();
  ls.ueIter = pools.garList();
  ls.modBefore = pools.garList();
  ls.modAfter = pools.garList();
  ls.deIter = pools.garList();
  ls.mod = pools.garList();
  ls.ue = pools.garList();
  ls.de = pools.garList();
  ls.ueAfter = pools.garList();
  ls.bodyAssignedScalars = pools.vars(/*allowInvalid=*/false);
  return ls;
}

ProcSummary readProcSummary(PoolReader& pools) {
  ProcSummary s;
  s.mod = pools.garList();
  s.ue = pools.garList();
  s.de = pools.garList();
  s.modAll = pools.garList();
  s.ueAll = pools.garList();
  s.modifiedScalars = pools.vars(/*allowInvalid=*/false);
  return s;
}

/// A unit's memoized summaries; every loop summary's walk index must name
/// one of the unit's `loopCount` cached reports, in ascending order.
SummaryAnalyzer::ProcSnapshot readProcSnapshot(PoolReader& pools, std::size_t loopCount) {
  Reader& r = pools.r;
  SummaryAnalyzer::ProcSnapshot snap;
  const bool hasSummary = r.u8() != 0;
  ProcSummary summary = readProcSummary(pools);
  if (hasSummary) snap.summary = std::move(summary);
  snap.loops.resize(loopCount);
  const std::uint64_t n = r.count(60, "loop summary");
  std::optional<std::uint32_t> previous;
  for (std::uint64_t l = 0; l < n && r.ok(); ++l) {
    const std::uint32_t walkIndex = r.u32();
    if (r.ok() && walkIndex >= loopCount)
      r.fail("corrupted snapshot: loop summary index out of range");
    if (r.ok() && previous && walkIndex <= *previous)
      r.fail("corrupted snapshot: loop summaries out of walk order");
    previous = walkIndex;
    LoopSummary ls = readLoopSummary(pools);
    if (r.ok()) snap.loops[walkIndex] = std::move(ls);
  }
  return snap;
}

}  // namespace

// ----- AnalysisSession::save ----------------------------------------------

store::StoreResult AnalysisSession::save(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return saveLocked(path);
}

store::StoreResult AnalysisSession::saveLocked(const std::string& path) const {
  StoreResult out;
  if (!live_) {
    out.error = path + ": cannot save a session before its first successful submit";
    return out;
  }

  PoolWriter pools;

  Writer head;
  head.u8(options_.symbolicAnalysis ? 1 : 0);
  head.u8(options_.ifConditions ? 1 : 0);
  head.u8(options_.interprocedural ? 1 : 0);
  head.u8(options_.quantified ? 1 : 0);
  head.u8(options_.computeDE ? 1 : 0);
  head.u8(options_.garSimplifier ? 1 : 0);

  head.u64(epoch_);
  head.u64(lastSourceHash_);
  head.u8(hasSourceHash_ ? 1 : 0);
  head.u64(fileSkips_);

  head.u64(symbols_.size());
  for (std::size_t i = 0; i < symbols_.size(); ++i)
    head.str(symbols_.name(VarId{static_cast<std::uint32_t>(i)}));

  // Array table (registers declared-bound expressions into the pool).
  Writer arraysW;
  arraysW.u64(arrays_.size());
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    const ArrayShape& s = arrays_.shape(ArrayId{static_cast<std::uint32_t>(i)});
    arraysW.str(s.name);
    arraysW.u64(s.declaredDims.size());
    for (const SymRange& d : s.declaredDims) pools.range(arraysW, d);
  }

  // Unit table in bottom-up order (restore rebuilds order_ from it):
  // fingerprints, the declaration-frame hash, headerless reports (doVar +
  // reportTail), the per-item reuse records, and the memoized summaries.
  Writer unitsW;
  unitsW.u64(order_.size());
  for (const std::string& name : order_) {
    const Unit& u = units_.at(name);
    unitsW.str(name);
    unitsW.u64(u.fp);
    unitsW.u64(u.frameFp);
    unitsW.u64(u.summaryEpoch);
    unitsW.u64(u.deps.size());
    for (const std::string& d : u.deps) unitsW.str(d);
    unitsW.u64(u.calleeEpochs.size());
    for (const auto& [dep, epoch] : u.calleeEpochs) {
      unitsW.str(dep);
      unitsW.u64(epoch);
    }
    unitsW.u64(u.loops.size());
    for (const CachedLoop& cl : u.loops) {
      unitsW.i64(cl.line);
      unitsW.u8(static_cast<std::uint8_t>(cl.classification));
      unitsW.str(cl.procName);
      unitsW.str(cl.doVar);
      unitsW.str(cl.reportTail);
      unitsW.str(cl.provenance);
    }
    unitsW.u64(u.items.size());
    for (const ItemRecord& rec : u.items) {
      unitsW.u64(rec.hash);
      unitsW.u64(rec.precedingHash);
      unitsW.u32(rec.loopBegin);
      unitsW.u32(rec.loopCount);
      unitsW.u64(rec.calleeEpochs.size());
      for (const auto& [callee, epoch] : rec.calleeEpochs) {
        unitsW.str(callee);
        unitsW.u64(epoch);
      }
    }
    writeProcSnapshot(unitsW, pools, u.memo);
  }

  // Assemble in the reader's order; the pools are complete only now, but
  // they sit *before* every section that references them.
  std::string payload;
  payload += head.bytes();
  {
    Writer c;
    c.u64(pools.exprCount);
    payload += c.bytes();
  }
  payload += pools.exprs.bytes();
  payload += arraysW.bytes();
  {
    Writer c;
    c.u64(pools.predCount);
    payload += c.bytes();
  }
  payload += pools.preds.bytes();
  payload += unitsW.bytes();

  return store::writeSnapshotFile(path, payload);
}

// ----- AnalysisSession::restore -------------------------------------------

store::StoreResult AnalysisSession::restore(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  StoreResult out = restoreLocked(path);
  publishStatusLocked();
  return out;
}

store::StoreResult AnalysisSession::restoreLocked(const std::string& path) {
  StoreResult out;
  std::string payload;
  {
    StoreResult file = store::readSnapshotFile(path, payload);
    if (!file.ok) return file;
  }

  Reader r(payload);
  auto failed = [&](const std::string& why) {
    StoreResult res;
    res.error = path + ": " + why;
    return res;
  };

  // The snapshot carries the ablation switches only; the execution options
  // (numThreads, loopGranularReuse) stay the restoring session's own.
  AnalysisOptions opts = options_;
  opts.symbolicAnalysis = r.u8() != 0;
  opts.ifConditions = r.u8() != 0;
  opts.interprocedural = r.u8() != 0;
  opts.quantified = r.u8() != 0;
  opts.computeDE = r.u8() != 0;
  opts.garSimplifier = r.u8() != 0;

  const std::uint64_t epoch = r.u64();
  const std::uint64_t lastSourceHash = r.u64();
  const bool hasSourceHash = r.u8() != 0;
  const std::uint64_t fileSkips = r.u64();

  SymbolTable symbols;
  {
    const std::uint64_t n = r.count(8, "symbol");
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      const std::string name = r.str();
      if (!r.ok()) break;
      VarId id = symbols.intern(name);
      if (id.value != i) return failed("corrupted snapshot: symbol table is not dense");
    }
    if (!r.ok()) return failed(r.error());
  }

  PoolReader pools(r);
  pools.symCount = symbols.size();
  if (!pools.readExprPool()) return failed(r.error());

  ArrayTable arrays;
  {
    const std::uint64_t n = r.count(16, "array");
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      const std::string name = r.str();
      const std::uint64_t rank = r.count(24, "declared dimension");
      std::vector<SymRange> dims;
      dims.reserve(static_cast<std::size_t>(rank));
      for (std::uint64_t d = 0; d < rank && r.ok(); ++d) dims.push_back(pools.range());
      if (!r.ok()) break;
      ArrayId id = arrays.intern(name, std::move(dims));
      if (id.value != i) return failed("corrupted snapshot: array table is not dense");
    }
    if (!r.ok()) return failed(r.error());
  }
  pools.arrayCount = arrays.size();

  if (!pools.readPredPool()) return failed(r.error());

  std::map<std::string, Unit> units;
  std::vector<std::string> order;
  {
    const std::uint64_t n = r.count(40, "unit");
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      std::string name = r.str();
      Unit u;
      u.fp = r.u64();
      u.frameFp = r.u64();
      u.summaryEpoch = r.u64();
      const std::uint64_t dn = r.count(8, "dependency");
      for (std::uint64_t d = 0; d < dn && r.ok(); ++d) u.deps.insert(r.str());
      const std::uint64_t en = r.count(16, "callee epoch");
      for (std::uint64_t e = 0; e < en && r.ok(); ++e) {
        const std::string dep = r.str();
        const std::uint64_t de = r.u64();
        u.calleeEpochs.emplace(dep, de);
      }
      const std::uint64_t ln = r.count(33, "cached loop");
      for (std::uint64_t l = 0; l < ln && r.ok(); ++l) {
        CachedLoop cl;
        cl.line = static_cast<int>(r.i64());
        const std::uint8_t cls = r.u8();
        if (r.ok() && cls > static_cast<std::uint8_t>(LoopClass::Serial))
          return failed("corrupted snapshot: unknown loop classification");
        cl.classification = static_cast<LoopClass>(cls);
        cl.procName = r.str();
        cl.doVar = r.str();
        cl.reportTail = r.str();
        cl.provenance = r.str();
        u.loops.push_back(std::move(cl));
      }
      const std::uint64_t in = r.count(32, "item record");
      for (std::uint64_t k = 0; k < in && r.ok(); ++k) {
        ItemRecord rec;
        rec.hash = r.u64();
        rec.precedingHash = r.u64();
        rec.loopBegin = r.u32();
        rec.loopCount = r.u32();
        const std::uint64_t cn = r.count(16, "item callee epoch");
        for (std::uint64_t c = 0; c < cn && r.ok(); ++c) {
          const std::string callee = r.str();
          const std::uint64_t ce = r.u64();
          rec.calleeEpochs.emplace(callee, ce);
        }
        if (r.ok() &&
            std::uint64_t{rec.loopBegin} + std::uint64_t{rec.loopCount} > u.loops.size())
          return failed("corrupted snapshot: item loop range exceeds the unit's loop cache");
        u.items.push_back(std::move(rec));
      }
      u.memo = readProcSnapshot(pools, u.loops.size());
      if (!r.ok()) break;
      if (!units.emplace(name, std::move(u)).second)
        return failed("corrupted snapshot: duplicate unit '" + name + "'");
      order.push_back(std::move(name));
    }
    if (!r.ok()) return failed(r.error());
  }

  if (!r.atEnd()) return failed("corrupted snapshot (trailing payload content)");

  // Everything validated — commit in one block of moves. From here on no
  // step can fail, so the atomicity contract holds.
  symbols_ = std::move(symbols);
  arrays_ = std::move(arrays);
  units_ = std::move(units);
  order_ = std::move(order);
  options_ = opts;
  epoch_ = epoch;
  lastSourceHash_ = lastSourceHash;
  hasSourceHash_ = hasSourceHash;
  fileSkips_ = fileSkips;
  live_ = true;
  lastStats_ = SessionStats{};
  lastStats_.epoch = epoch_;
  lastStats_.procedures = units_.size();
  lastStats_.fileSkips = fileSkips_;

  out.ok = true;
  return out;
}

}  // namespace panorama
