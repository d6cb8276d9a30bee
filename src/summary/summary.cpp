#include "panorama/summary/summary.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "panorama/obs/trace.h"

namespace panorama {

SummaryAnalyzer::SummaryAnalyzer(const Program& program, SemaResult& sema, const Hsg& hsg,
                                 AnalysisOptions options)
    : program_(&program), sema_(&sema), hsg_(&hsg), options_(options) {
  // Every symbol analysis needs is interned here, so analysis only reads
  // the table. The ψ1 dimension symbol and the ArrayPred relation keys:
  // VarIds are per-SymbolTable, so each analyzer resolves its own binding
  // from its kernel's table and threads it through every CmpCtx and
  // Gar::make call; concurrent analyses of different kernels never share ψ
  // state.
  SymbolTable& symbols = sema_->symbols;
  if (options_.quantified) {
    psi_.dim1 = symbols.intern("psi$1");
    apKeys_ = {symbols.intern("ap$lt"), symbols.intern("ap$le"), symbols.intern("ap$eq")};
  }
  ctx_ = CmpCtx(ConstraintSet{}, psi_);

  // The whole memo's keys, up front: a slot per procedure and a loop entry
  // per DO statement of its walk, with the index's primed copy.
  slots_.reserve(program.procedures.size());
  for (const Procedure& proc : program.procedures) {
    ProcSlot& slot = slots_[&proc];
    const std::vector<const Stmt*> walk = collectDoLoops(proc.body);
    slot.memo.loops.resize(walk.size());
    for (std::uint32_t k = 0; k < walk.size(); ++k)
      loopAt_.emplace(walk[k], LoopAt{&slot, k, symbols.primed(walk[k]->doVar)});
    if (!options_.symbolicAnalysis) {
      const ProcSymbols& sym = sema.of(proc);
      for (const Stmt* loop : walk)
        if (auto id = sym.scalarId(loop->doVar)) slot.indexVars.insert(*id);
    }
  }
}

void SummaryAnalyzer::rebind(const Program& program, SemaResult& sema, const Hsg& hsg) {
  program_ = &program;
  sema_ = &sema;
  hsg_ = &hsg;
}

const LoopSummary* SummaryAnalyzer::loopSummary(const Stmt* doStmt) const {
  auto it = loopAt_.find(doStmt);
  if (it == loopAt_.end()) return nullptr;
  const std::vector<std::optional<LoopSummary>>& loops = it->second.slot->memo.loops;
  const std::uint32_t k = it->second.walkIndex;
  return k < loops.size() && loops[k] ? &*loops[k] : nullptr;
}

std::optional<LoopSummary>& SummaryAnalyzer::loopEntry(const Stmt& doStmt) {
  const LoopAt& at = loopAt_.at(&doStmt);
  return at.slot->memo.loops.at(at.walkIndex);
}

SummaryStats SummaryAnalyzer::stats() const {
  SummaryStats out;
  out.blockSteps = stats_.blockSteps.load(std::memory_order_relaxed);
  out.loopExpansions = stats_.loopExpansions.load(std::memory_order_relaxed);
  out.callMappings = stats_.callMappings.load(std::memory_order_relaxed);
  out.peakListLength = stats_.peakListLength.load(std::memory_order_relaxed);
  out.garsCreated = stats_.garsCreated.load(std::memory_order_relaxed);
  return out;
}

void SummaryAnalyzer::note(const GarList& list) {
  std::size_t prev = stats_.peakListLength.load(std::memory_order_relaxed);
  while (list.size() > prev &&
         !stats_.peakListLength.compare_exchange_weak(prev, list.size(),
                                                      std::memory_order_relaxed)) {
  }
  stats_.garsCreated += list.size();
}

SymExpr SummaryAnalyzer::lowerValue(const Expr& e, const ProcSymbols& sym) const {
  SymExpr v = lowerInt(e, sym);
  if (!options_.symbolicAnalysis && !v.isPoisoned()) {
    // The T1-off baseline reasons about loop indices and constants only;
    // other symbolic terms (the n's, jmax's and mrs's of the Perfect
    // kernels) are beyond it.
    std::vector<VarId> vars;
    v.collectVars(vars);
    const std::set<VarId>& indices = slotOf(*sym.proc).indexVars;
    for (VarId var : vars)
      if (!indices.count(var)) return SymExpr::poisoned();
  }
  return v;
}

Pred SummaryAnalyzer::lowerGuard(const Expr& e, const ProcSymbols& sym) {
  if (options_.quantified && options_.ifConditions && options_.symbolicAnalysis)
    return lowerGuardQuantified(e, sym);
  return lowerGuardBase(e, sym);
}

Pred SummaryAnalyzer::lowerGuardBase(const Expr& e, const ProcSymbols& sym) const {
  if (!options_.ifConditions) return Pred::makeUnknown();
  Pred p = lowerCond(e, sym);
  if (!options_.symbolicAnalysis) {
    // Without symbolic analysis only logical-variable facts survive;
    // relational content is symbolic arithmetic by nature.
    Pred reduced = p.isUnknown() ? Pred::makeUnknown() : Pred::makeTrue();
    for (const Disjunct& clause : p.clauses()) {
      bool logicalOnly = std::all_of(clause.atoms.begin(), clause.atoms.end(), [](const Atom& a) {
        return a.kind() == Atom::Kind::LogVar;
      });
      if (!logicalOnly) {
        reduced = reduced && Pred::makeUnknown();
        continue;
      }
      Pred keep = Pred::makeFalse();
      for (const Atom& a : clause.atoms) keep = keep || Pred::atom(a);
      reduced = reduced && keep;
    }
    return reduced;
  }
  return p;
}

void SummaryAnalyzer::poisonScalars(GarList& list, const std::vector<VarId>& vars) const {
  if (vars.empty() || list.empty()) return;
  std::map<VarId, SymExpr> map;
  for (VarId v : vars)
    if (list.containsVar(v)) map.emplace(v, SymExpr::poisoned());
  if (map.empty()) return;
  list = list.substituted(map);
}

void SummaryAnalyzer::addUses(const Expr& e, const ProcSymbols& sym, GarList& ue) {
  std::function<void(const Expr&)> visit = [&](const Expr& x) {
    for (const ExprPtr& a : x.args) visit(*a);
    if (x.kind == Expr::Kind::ArrayRef)
      ue.add(Gar::make(Pred::makeTrue(), lowerRef(x, sym), psi_));
  };
  visit(e);
}

Region SummaryAnalyzer::lowerRef(const Expr& ref, const ProcSymbols& sym) {
  std::vector<SymRange> dims;
  dims.reserve(ref.args.size());
  for (const ExprPtr& sub : ref.args) {
    SymExpr v = lowerValue(*sub, sym);
    if (v.isPoisoned())
      dims.push_back(SymRange::unknown());
    else
      dims.push_back(SymRange::point(std::move(v)));
  }
  return Region(*sym.arrayId(ref.name), dims);
}

void SummaryAnalyzer::collectAssignedScalars(const std::vector<const Stmt*>& stmts,
                                             const ProcSymbols& sym, std::vector<VarId>& out,
                                             bool throughCalls) {
  std::function<void(const Stmt&)> visit = [&](const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::Assign:
        if (s.lhs->kind == Expr::Kind::VarRef) {
          if (auto id = sym.scalarId(s.lhs->name)) out.push_back(*id);
        }
        break;
      case Stmt::Kind::Do: {
        if (auto id = sym.scalarId(s.doVar)) out.push_back(*id);
        break;
      }
      case Stmt::Kind::Call: {
        if (!throughCalls) break;
        const Procedure* callee = program_->findProcedure(s.callee);
        if (!callee) break;
        // The scheduler summarizes a callee before its callers, so under
        // it this reads a filled slot.
        const std::vector<VarId>& calleeMods = procSummary(*callee).modifiedScalars;
        const ProcSymbols& calleeSym = sema_->of(*callee);
        for (VarId v : calleeMods) {
          // Formal scalars map to scalar VarRef actuals; commons pass as-is.
          bool mapped = false;
          for (std::size_t i = 0; i < callee->params.size(); ++i) {
            auto fid = calleeSym.scalarId(callee->params[i]);
            if (fid && *fid == v) {
              mapped = true;
              if (i < s.args.size() && s.args[i]->kind == Expr::Kind::VarRef) {
                if (auto aid = sym.scalarId(s.args[i]->name)) out.push_back(*aid);
              }
              break;
            }
          }
          if (!mapped) out.push_back(v);  // common/global scalar
        }
        break;
      }
      default:
        break;
    }
    for (const StmtPtr& c : s.thenBody) visit(*c);
    for (const StmtPtr& c : s.elseBody) visit(*c);
    for (const StmtPtr& c : s.body) visit(*c);
  };
  for (const Stmt* s : stmts) visit(*s);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::vector<VarId> SummaryAnalyzer::escapingScalars(const Procedure& proc) {
  // Sema rejects recursion, so the transitive callee lookups terminate.
  std::vector<const Stmt*> roots;
  for (const StmtPtr& s : proc.body) roots.push_back(s.get());
  std::vector<VarId> all;
  collectAssignedScalars(roots, sema_->of(proc), all, /*throughCalls=*/true);
  // Only formal and common scalars escape the procedure.
  const ProcSymbols& sym = sema_->of(proc);
  std::vector<VarId> escaping;
  for (VarId v : all) {
    bool isFormal = false;
    for (const std::string& p : proc.params) {
      if (auto fid = sym.scalarId(p); fid && *fid == v) isFormal = true;
    }
    bool isLocal = sema_->symbols.name(v).starts_with(proc.name + "::");
    if (isFormal || !isLocal) escaping.push_back(v);
  }
  return escaping;
}

// ---------------------------------------------------------------------------
// SUM_segment (§4.1): per-node summaries then backward propagation.
// ---------------------------------------------------------------------------

void SummaryAnalyzer::sumSegment(const HsgGraph& g, const ProcSymbols& sym, GarList& mod,
                                 GarList& ue, GarList* de) {
  std::vector<int> topo = g.topoOrder();
  std::map<int, NodeSets> in;
  // DE lists propagate only when the caller asks for them (computeDE);
  // otherwise every node's de stays empty and costs nothing.
  const bool withDE = de != nullptr;

  auto simplified = [&](GarList list) {
    if (options_.garSimplifier) simplifyGarList(list, ctx_, &sema_->arrays);
    note(list);
    return list;
  };
  // The GAR-simplifier ablation: without it, unions are plain concatenation
  // and lists grow with every propagation step (§5.2's motivation).
  auto unite = [&](const GarList& a, const GarList& b) {
    if (!options_.garSimplifier) {
      GarList out = a;
      out.append(b);
      note(out);
      return out;
    }
    return garUnion(a, b, ctx_, &sema_->arrays);
  };

  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const HsgNode& n = g.node(*it);

    // Merge successor in-sets (guarded per-branch at condition nodes).
    GarList modOut;
    GarList ueOut;
    GarList deOut;
    if (n.kind == HsgNode::Kind::Cond && n.succs.size() == 2 && n.succs[0] != n.succs[1]) {
      Pred c = n.cond ? lowerGuard(*n.cond, sym) : Pred::makeUnknown();
      Pred notC = !c;
      modOut = unite(in[n.succs[0]].mod.withGuard(c), in[n.succs[1]].mod.withGuard(notC));
      ueOut = unite(in[n.succs[0]].ue.withGuard(c), in[n.succs[1]].ue.withGuard(notC));
      if (withDE)
        deOut = unite(in[n.succs[0]].de.withGuard(c), in[n.succs[1]].de.withGuard(notC));
    } else {
      for (int s : n.succs) {
        modOut = unite(modOut, in[s].mod);
        ueOut = unite(ueOut, in[s].ue);
        if (withDE) deOut = unite(deOut, in[s].de);
      }
    }

    NodeSets sets;
    switch (n.kind) {
      case HsgNode::Kind::Entry:
      case HsgNode::Kind::Exit:
        sets.mod = std::move(modOut);
        sets.ue = std::move(ueOut);
        sets.de = std::move(deOut);
        break;
      case HsgNode::Kind::Block: {
        sets.mod = std::move(modOut);
        sets.ue = std::move(ueOut);
        sets.de = std::move(deOut);
        foldBlockBackward(n, sym, sets.mod, sets.ue, withDE ? &sets.de : nullptr);
        break;
      }
      case HsgNode::Kind::Cond: {
        sets.mod = std::move(modOut);
        sets.ue = std::move(ueOut);
        sets.de = std::move(deOut);
        if (n.cond) {
          GarList uses;
          addUses(*n.cond, sym, uses);  // the condition reads arrays
          sets.ue = unite(sets.ue, uses);
          if (withDE) sets.de = unite(sets.de, garSubtract(uses, sets.mod, ctx_));
        }
        break;
      }
      case HsgNode::Kind::Loop:
      case HsgNode::Kind::Call:
      case HsgNode::Kind::Condensed: {
        NodeSets own = n.kind == HsgNode::Kind::Loop   ? sumLoop(n, sym)
                       : n.kind == HsgNode::Kind::Call ? sumCall(n, sym)
                                                       : sumCondensed(n, sym);
        // Scalars the compound node may write invalidate successor sets.
        std::vector<VarId> killed;
        std::vector<const Stmt*> roots;
        if (n.loopStmt) roots.push_back(n.loopStmt);
        if (n.callStmt) roots.push_back(n.callStmt);
        roots.insert(roots.end(), n.condensed.begin(), n.condensed.end());
        if (options_.quantified && n.kind == HsgNode::Kind::Loop) {
          if (const CounterIdiom* idiom = counterIdiomFor(n.loopStmt, sym)) {
            // The guarded-counter rewrite must fire before the counter is
            // poisoned as a plain loop-variant scalar.
            applyCounterRewrite(modOut, *idiom);
            applyCounterRewrite(ueOut, *idiom);
          }
        }
        collectAssignedScalars(roots, sym, killed, /*throughCalls=*/true);
        poisonScalars(modOut, killed);
        poisonScalars(ueOut, killed);
        if (withDE) poisonScalars(deOut, killed);
        if (n.kind == HsgNode::Kind::Loop) {
          // Record the downstream exposure for the live-out (copy-out) test.
          if (std::optional<LoopSummary>& ls = loopEntry(*n.loopStmt)) ls->ueAfter = ueOut;
        }
        sets.ue = unite(own.ue, garSubtract(ueOut, own.mod, ctx_));
        // The node's own uses are downward exposed only past the writes
        // that follow the node.
        if (withDE) sets.de = unite(garSubtract(own.de, modOut, ctx_), deOut);
        sets.mod = unite(own.mod, modOut);
        if (options_.quantified) {
          // Values of tested arrays are only stable up to the node that
          // writes them; quantified atoms crossing it go stale.
          std::vector<ArrayId> written = own.mod.arrays();
          taintQuantified(sets.ue, written);
          taintQuantified(sets.mod, written);
          if (withDE) taintQuantified(sets.de, written);
        }
        break;
      }
    }
    sets.mod = simplified(std::move(sets.mod));
    sets.ue = simplified(std::move(sets.ue));
    if (withDE) sets.de = simplified(std::move(sets.de));
    in[*it] = std::move(sets);
  }

  mod = std::move(in[g.entry].mod);
  ue = std::move(in[g.entry].ue);
  if (de) *de = std::move(in[g.entry].de);
}

const ProcSummary& SummaryAnalyzer::procSummary(const Procedure& proc) {
  ProcSlot& slot = slotOf(proc);
  if (slot.memo.summary) return *slot.memo.summary;
  // Only proc's one writer gets here: the scheduler summarizes every callee
  // first, so the recursive lookups below are read-only; a direct call
  // outside the scheduler is plain memoization.
  obs::Span span("summary.proc", proc.name);
  const ProcSymbols& sym = sema_->of(proc);
  GarList mod;
  GarList ue;
  GarList de;
  sumSegment(hsg_->of(proc).graph, sym, mod, ue, options_.computeDE ? &de : nullptr);

  ProcSummary summary;
  summary.modAll = mod;
  summary.ueAll = ue;
  // Keep only formal-array and common-array effects; drop locals.
  auto escapes = [&](ArrayId id) {
    for (const auto& [name, aid] : sym.arrayIds) {
      if (aid != id) continue;
      bool isFormal =
          std::find(proc.params.begin(), proc.params.end(), name) != proc.params.end();
      bool isLocal = sema_->arrays.name(id).starts_with(proc.name + "::");
      return isFormal || !isLocal;
    }
    return false;
  };
  for (const Gar& g : mod.gars())
    if (escapes(g.array())) summary.mod.add(g);
  for (const Gar& g : ue.gars())
    if (escapes(g.array())) summary.ue.add(g);
  for (const Gar& g : de.gars())
    if (escapes(g.array())) summary.de.add(g);

  // Local scalars remaining in the summaries denote uninitialized entry
  // values: poison them.
  std::vector<VarId> locals;
  for (const auto& [name, vid] : sym.scalars) {
    bool isFormal = std::find(proc.params.begin(), proc.params.end(), name) != proc.params.end();
    bool isLocal = sema_->symbols.name(vid).starts_with(proc.name + "::");
    if (isLocal && !isFormal) locals.push_back(vid);
  }
  poisonScalars(summary.mod, locals);
  poisonScalars(summary.ue, locals);
  if (options_.computeDE) poisonScalars(summary.de, locals);
  summary.modifiedScalars = escapingScalars(proc);
  return slot.memo.summary.emplace(std::move(summary));
}

SummaryAnalyzer::ProcSnapshot SummaryAnalyzer::takeProcedure(const Procedure& proc) {
  return std::exchange(slotOf(proc).memo, {});
}

void SummaryAnalyzer::seedProcedure(const Procedure& proc, ProcSnapshot snapshot) {
  ProcSlot& slot = slotOf(proc);
  snapshot.loops.resize(slot.memo.loops.size());
  slot.memo = std::move(snapshot);
}

SummaryAnalyzer::NodeSets SummaryAnalyzer::sumCondensed(const HsgNode& node, const ProcSymbols& sym) {
  // §5.4: condensed backward-GOTO cycles are approximated conservatively —
  // every read is possibly exposed, every write is possible but uncertain.
  NodeSets out;
  std::function<void(const Expr&, bool)> touch = [&](const Expr& e, bool /*write*/) {
    std::function<void(const Expr&)> visit = [&](const Expr& x) {
      for (const ExprPtr& a : x.args) visit(*a);
      if (x.kind == Expr::Kind::ArrayRef) {
        auto id = sym.arrayId(x.name);
        if (id) {
          int rank = sema_->arrays.shape(*id).rank();
          out.ue.add(Gar::omega(*id, rank));
        }
      }
    };
    visit(e);
  };
  for (const Stmt* s : node.condensed) {
    if (s->kind == Stmt::Kind::Assign) {
      if (s->lhs->kind == Expr::Kind::ArrayRef) {
        if (auto id = sym.arrayId(s->lhs->name))
          out.mod.add(Gar::omega(*id, sema_->arrays.shape(*id).rank()));
        for (const ExprPtr& sub : s->lhs->args) touch(*sub, false);
      }
      touch(*s->rhs, false);
    } else if (s->kind == Stmt::Kind::Call) {
      // Ω on array args, plus — since a condensed cycle gives no usable
      // call context — Ω on every COMMON array of the program.
      for (const ExprPtr& a : s->args) {
        touch(*a, false);
        if (a->kind == Expr::Kind::VarRef) {
          if (auto id = sym.arrayId(a->name)) {
            int rank = sema_->arrays.shape(*id).rank();
            out.mod.add(Gar::omega(*id, rank));
            out.ue.add(Gar::omega(*id, rank));
          }
        }
      }
      for (std::size_t k = 0; k < sema_->arrays.size(); ++k) {
        ArrayId id{static_cast<std::uint32_t>(k)};
        if (sema_->arrays.name(id).find("::") != std::string::npos &&
            !sema_->arrays.name(id).starts_with(sym.proc->name + "::")) {
          bool isCommon = true;
          for (const Procedure& pr : program_->procedures)
            if (sema_->arrays.name(id).starts_with(pr.name + "::")) isCommon = false;
          if (isCommon) {
            out.mod.add(Gar::omega(id, sema_->arrays.shape(id).rank()));
            out.ue.add(Gar::omega(id, sema_->arrays.shape(id).rank()));
          }
        }
      }
    } else if (s->cond) {
      touch(*s->cond, false);
    }
  }
  return out;
}

}  // namespace panorama
