// SUM_loop (§4.1): summarize the body once (as MOD_i / UE_i in terms of the
// index), derive MOD_{<i} and MOD_{>i} by renaming and expansion, subtract
// MOD_{<i} from UE_i, and expand everything to whole-loop sets.
#include "panorama/summary/summary.h"

#include "panorama/obs/trace.h"

namespace panorama {

namespace {

/// Context carrying lo <= i <= up (direction-normalized) for in-loop
/// reasoning, derived from `base` so the ψ binding survives. Unusable
/// pieces are simply skipped (weaker context only).
CmpCtx loopContext(const LoopBounds& b, const CmpCtx& base) {
  ConstraintSet cs;
  SymExpr I = SymExpr::variable(b.index);
  auto sc = b.step.constantValue();
  if (!sc) return base;
  if (*sc > 0) {
    cs.addExprLE0(b.lo - I);
    cs.addExprLE0(I - b.up);
  } else if (*sc < 0) {
    cs.addExprLE0(b.up - I);
    cs.addExprLE0(I - b.lo);
  }
  return base.withContext(std::move(cs));
}

}  // namespace

std::map<VarId, SymExpr> SummaryAnalyzer::recognizeInductionVars(const Stmt& loop,
                                                                 const ProcSymbols& sym,
                                                                 VarId index,
                                                                 const SymExpr& lo) {
  // Candidates: scalars with exactly one assignment in the whole body, at
  // the top level, of the shape v = v + c with c loop-invariant.
  std::map<VarId, SymExpr> out;
  std::map<std::string, int> writeCounts;
  std::function<void(const Stmt&)> count = [&](const Stmt& s) {
    if (s.kind == Stmt::Kind::Assign && s.lhs->kind == Expr::Kind::VarRef)
      ++writeCounts[s.lhs->name];
    if (s.kind == Stmt::Kind::Do) ++writeCounts[s.doVar];
    if (s.kind == Stmt::Kind::Call) {
      // Calls may write by-ref scalars; disqualify everything they touch.
      const Procedure* callee = program_->findProcedure(s.callee);
      if (callee) {
        for (const ExprPtr& a : s.args)
          if (a->kind == Expr::Kind::VarRef && sym.isScalar(a->name))
            writeCounts[a->name] += 2;  // conservatively "more than once"
      }
    }
    for (const StmtPtr& c : s.thenBody) count(*c);
    for (const StmtPtr& c : s.elseBody) count(*c);
    for (const StmtPtr& c : s.body) count(*c);
  };
  for (const StmtPtr& c : loop.body) count(*c);

  std::vector<VarId> assigned;
  collectAssignedScalars({&loop}, sym, assigned, /*throughCalls=*/true);

  for (const StmtPtr& c : loop.body) {
    const Stmt& s = *c;
    if (s.kind != Stmt::Kind::Assign || s.lhs->kind != Expr::Kind::VarRef) continue;
    if (!sym.isScalar(s.lhs->name) || writeCounts[s.lhs->name] != 1) continue;
    auto vid = sym.scalarId(s.lhs->name);
    if (!vid || *vid == index) continue;
    const Expr& rhs = *s.rhs;
    if (rhs.kind != Expr::Kind::Binary || rhs.binOp != BinOp::Add) continue;
    const Expr* self = rhs.args[0].get();
    const Expr* incr = rhs.args[1].get();
    if (self->kind != Expr::Kind::VarRef) std::swap(self, incr);
    if (self->kind != Expr::Kind::VarRef || self->name != s.lhs->name) continue;
    SymExpr c0 = lowerValue(*incr, sym);
    if (c0.isPoisoned()) continue;
    // The increment must be loop-invariant: no index, no body-assigned vars.
    std::vector<VarId> vars;
    c0.collectVars(vars);
    bool invariant = true;
    for (VarId v : vars) {
      if (v == index) invariant = false;
      for (VarId w : assigned)
        if (w == v) invariant = false;
    }
    if (!invariant) continue;
    // v at body entry of iteration i: v_loopentry + c*(i - lo).
    SymExpr trips = SymExpr::variable(index) - lo;
    out.emplace(*vid, SymExpr::variable(*vid) + c0 * trips);
  }
  return out;
}

SummaryAnalyzer::NodeSets SummaryAnalyzer::sumLoop(const HsgNode& n, const ProcSymbols& sym) {
  const Stmt& s = *n.loopStmt;

  // Seeded fast path (seedProcedure): a previous epoch already expanded
  // this statement and the session proved the expansion still valid, so the
  // stored whole-loop sets *are* this call's result. The invariant making
  // this exact: every path below stores ls.mod/ue/de equal to the NodeSets
  // it returns. ueAfter is downstream context, not subtree content — the
  // enclosing sumSegment overwrites it after this returns either way.
  std::optional<LoopSummary>& entry = loopEntry(s);
  if (entry) {
    NodeSets out;
    out.mod = entry->mod;
    out.ue = entry->ue;
    out.de = entry->de;
    return out;
  }

  ++stats_.loopExpansions;
  obs::Span span("summary.loop_expansion", "DO " + s.doVar);
  if (span.active()) span.arg("line", std::to_string(s.loc.line));

  LoopSummary ls;
  ls.prematureExit = n.prematureExit;

  auto idxId = sym.scalarId(s.doVar);
  SymExpr lo = lowerValue(*s.lo, sym);
  SymExpr up = lowerValue(*s.hi, sym);
  SymExpr st = s.step ? lowerValue(*s.step, sym) : SymExpr::constant(1);
  // A poisoned *upper* bound still permits MOD_{<i}-based reasoning (its
  // window is [lo, i-st]); expansion degrades the pieces that do need `up`
  // to Δ/Ω on its own. Lower bound and step are indispensable.
  ls.boundsKnown = idxId.has_value() && !lo.isPoisoned() && !st.isPoisoned();

  const bool withDE = options_.computeDE;
  GarList modI;
  GarList ueI;
  GarList deI;
  sumSegment(*n.body, sym, modI, ueI, withDE ? &deI : nullptr);
  // The per-iteration lists every rewrite below applies to.
  std::vector<GarList*> iterLists{&modI, &ueI};
  if (withDE) iterLists.push_back(&deI);

  // Loop-variant scalars other than the index refer to previous-iteration
  // values at body entry. Basic induction variables (§5.2: "for induction
  // variables, we first convert them to expressions of index variables")
  // rewrite exactly — a scalar v incremented once, unconditionally, by a
  // loop-invariant amount c has body-entry value v + c*(i - lo) at iteration
  // i of a unit-step loop. Everything else loop-variant poisons.
  std::vector<const Stmt*> roots{&s};
  collectAssignedScalars(roots, sym, ls.bodyAssignedScalars, /*throughCalls=*/true);
  std::map<VarId, SymExpr> induction =
      ls.boundsKnown && st == SymExpr::constant(1) && options_.symbolicAnalysis
          ? recognizeInductionVars(s, sym, *idxId, lo)
          : std::map<VarId, SymExpr>{};
  if (!induction.empty())
    for (GarList* list : iterLists) *list = list->substituted(induction);
  std::vector<VarId> variant;
  for (VarId v : ls.bodyAssignedScalars)
    if ((!idxId || v != *idxId) && !induction.contains(v)) variant.push_back(v);
  for (GarList* list : iterLists) poisonScalars(*list, variant);
  if (options_.quantified && idxId) {
    // §5.3: per-iteration element conditions on the moving point become ψ1
    // dimension predicates, which expand exactly.
    for (GarList* list : iterLists) psiRewrite(*list, *idxId);
  }

  ls.modIter = modI;
  ls.ueIter = ueI;
  ls.deIter = deI;

  NodeSets out;
  // The loop-header expressions are evaluated (bounds may read arrays).
  addUses(*s.lo, sym, out.ue);
  addUses(*s.hi, sym, out.ue);
  if (s.step) addUses(*s.step, sym, out.ue);

  if (!ls.boundsKnown) {
    // Unknown header: every touched array degrades to Ω.
    for (const Gar& g : modI.gars())
      out.mod.add(Gar::omega(g.array(), g.region().rank()));
    for (const Gar& g : ueI.gars())
      out.ue.add(Gar::omega(g.array(), g.region().rank()));
    if (withDE) out.de = out.ue;
    // Keep the stored sets equal to the returned ones so the seeded fast
    // path above reproduces this result exactly. (analyzeLoop never reads
    // mod/ue/de of an unanalyzable-header loop — it bails on boundsKnown.)
    ls.mod = out.mod;
    ls.ue = out.ue;
    ls.de = out.de;
    entry = std::move(ls);
    return out;
  }

  ls.bounds = LoopBounds{*idxId, lo, up, st};
  CmpCtx inLoop = loopContext(ls.bounds, ctx_);

  // MOD_{<i} / MOD_{>i}: rename i to its reserved primed copy i' and expand
  // over the prior/following iteration windows (step-aligned endpoints).
  // The expansion projects i' out, so it never reaches a summary, and every
  // re-summarization of this loop reuses the same i'.
  VarId ii = loopAt_.at(&s).primed;
  GarList renamed = modI.substituted(*idxId, SymExpr::variable(ii));
  SymExpr I = SymExpr::variable(*idxId);
  ls.modBefore = expandByIndex(renamed, LoopBounds{ii, lo, I - st, st}, inLoop);
  ls.modAfter = expandByIndex(renamed, LoopBounds{ii, I + st, up, st}, inLoop);

  // ue_i_out = UE_i − MOD_{<i}; whole-loop sets by expansion. DE mirrors it
  // downward: DE(loop) = expand(DE_i − MOD_{>i}).
  GarList ueOut = garSubtract(ueI, ls.modBefore, inLoop);
  GarList ueExpanded = expandByIndex(ueOut, ls.bounds, ctx_);
  GarList modExpanded;
  if (!n.prematureExit) {
    modExpanded = expandByIndex(modI, ls.bounds, ctx_);
  } else {
    // §5.4: with a premature exit, later iterations may never start, so the
    // whole-loop MOD cannot assume the full iteration space — except for
    // loop-*invariant* exact pieces: if iteration 1 starts (lo <= up), an
    // invariant guard already decides the write (an invariant exit
    // condition is folded into the guard; a variant one poisoned it).
    // Everything else degrades to Δ. (MOD_{<i} needs no such treatment: an
    // executing iteration i certifies its predecessors ran full bodies.)
    GarList invariant;
    GarList variant;
    for (const Gar& g : modI.gars()) {
      if (g.isExact() && !g.containsVar(*idxId))
        invariant.add(g);
      else
        variant.add(g);
    }
    modExpanded = expandByIndex(invariant, ls.bounds, ctx_);
    GarList variantExpanded = expandByIndex(variant, ls.bounds, ctx_);
    modExpanded =
        garUnion(modExpanded, variantExpanded.withGuard(Pred::makeUnknown()), ctx_,
                 &sema_->arrays);
  }
  GarList deExpanded;
  if (withDE) {
    GarList deOutIter = garSubtract(deI, ls.modAfter, inLoop);
    deExpanded = expandByIndex(deOutIter, ls.bounds, ctx_);
  }
  out.mod = garUnion(out.mod, modExpanded, ctx_, &sema_->arrays);
  out.ue = garUnion(out.ue, ueExpanded, ctx_, &sema_->arrays);
  if (withDE) out.de = garUnion(out.de, deExpanded, ctx_, &sema_->arrays);
  ls.mod = out.mod;
  ls.ue = out.ue;
  ls.de = out.de;
  note(out.mod);
  note(out.ue);
  entry = std::move(ls);
  return out;
}

}  // namespace panorama
