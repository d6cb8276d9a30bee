// The §5.2/§5.3 quantified-guard extension — the piece of "future work" the
// paper names as the missing ingredient for Figure 1(a) / MDG's RL:
//
//   * conditions over single array elements lower to *uninterpreted*
//     ArrayPred atoms q(A[f], rhs) instead of Δ;
//   * the guarded-counter idiom (kc = 0; DO k: IF q(k) kc = kc+1) turns a
//     later (kc == 0) guard into ∀k∈[lo,up]: ¬q — exactly, since the count
//     starts at zero and only grows;
//   * per-iteration element conditions become ψ1 dimension predicates
//     (§5.3) before expansion, so "the elements of A(6:9) with ¬q" is a
//     representable region;
//   * any write to the predicate's array invalidates in-flight q atoms
//     (they describe values at their creation point only) — affected guard
//     clauses degrade to Δ, preserving soundness.
#include <functional>

#include "panorama/summary/summary.h"

namespace panorama {

namespace {

/// Relation tags for ArrayPred keys, in apKeys_ order (ap$lt, ap$le,
/// ap$eq); gt/ge/ne are carried by polarity.
enum class ApRel { Lt, Le, Eq };

/// Drops every clause containing a quantified atom that `shouldTaint`
/// accepts; sets Δ when anything was dropped.
Pred taintPred(const Pred& p, const std::function<bool(const Atom&)>& shouldTaint) {
  bool changed = false;
  Pred out = p.isUnknown() ? Pred::makeUnknown() : Pred::makeTrue();
  for (const Disjunct& clause : p.clauses()) {
    bool hit = false;
    for (const Atom& a : clause.atoms)
      if (isQuantifiedKind(a.kind()) && shouldTaint(a)) hit = true;
    if (hit) {
      changed = true;
      out = out && Pred::makeUnknown();
      continue;
    }
    Pred keep = Pred::makeFalse();
    for (const Atom& a : clause.atoms) keep = keep || Pred::atom(a);
    out = out && keep;
  }
  return changed ? out : p;
}

}  // namespace

Pred SummaryAnalyzer::lowerGuardQuantified(const Expr& e, const ProcSymbols& sym) {
  switch (e.kind) {
    case Expr::Kind::Unary:
      if (e.unOp == UnOp::Not) return !lowerGuardQuantified(*e.args[0], sym);
      return Pred::makeUnknown();
    case Expr::Kind::Binary:
      switch (e.binOp) {
        case BinOp::And:
          return lowerGuardQuantified(*e.args[0], sym) &&
                 lowerGuardQuantified(*e.args[1], sym);
        case BinOp::Or:
          return lowerGuardQuantified(*e.args[0], sym) ||
                 lowerGuardQuantified(*e.args[1], sym);
        case BinOp::Lt:
        case BinOp::Le:
        case BinOp::Gt:
        case BinOp::Ge:
        case BinOp::Eq:
        case BinOp::Ne: {
          // The plain fragment first (both sides scalar-lowerable).
          Pred plain = lowerCond(e, sym);
          if (!plain.isUnknown()) return plain;
          // One side a 1-D array element, the other lowerable: ArrayPred.
          const Expr* lhs = e.args[0].get();
          const Expr* rhs = e.args[1].get();
          bool flipped = false;
          if (lhs->kind != Expr::Kind::ArrayRef) {
            std::swap(lhs, rhs);
            flipped = true;
          }
          if (lhs->kind != Expr::Kind::ArrayRef || rhs->kind == Expr::Kind::ArrayRef)
            return Pred::makeUnknown();
          auto arrayId = sym.arrayId(lhs->name);
          if (!arrayId || lhs->args.size() != 1) return Pred::makeUnknown();
          SymExpr sub = lowerValue(*lhs->args[0], sym);
          SymExpr other = lowerValue(*rhs, sym);
          if (sub.isPoisoned() || other.isPoisoned()) return Pred::makeUnknown();
          // Orient: elem REL other. A flip mirrors the relation.
          BinOp op = e.binOp;
          if (flipped) {
            op = op == BinOp::Lt   ? BinOp::Gt
                 : op == BinOp::Gt ? BinOp::Lt
                 : op == BinOp::Le ? BinOp::Ge
                 : op == BinOp::Ge ? BinOp::Le
                                   : op;
          }
          ApRel rel;
          bool positive;
          switch (op) {
            case BinOp::Lt: rel = ApRel::Lt; positive = true; break;
            case BinOp::Ge: rel = ApRel::Lt; positive = false; break;
            case BinOp::Le: rel = ApRel::Le; positive = true; break;
            case BinOp::Gt: rel = ApRel::Le; positive = false; break;
            case BinOp::Eq: rel = ApRel::Eq; positive = true; break;
            default: rel = ApRel::Eq; positive = false; break;  // Ne
          }
          VarId key = apKeys_[static_cast<std::size_t>(rel)];
          return Pred::atom(Atom::arrayPred(AtomArrayRef{arrayId->value}, key, std::move(sub),
                                            std::move(other), positive));
        }
        default:
          return lowerCond(e, sym);
      }
    default:
      return lowerCond(e, sym);
  }
}

const SummaryAnalyzer::CounterIdiom* SummaryAnalyzer::counterIdiomFor(const Stmt* loop,
                                                                      const ProcSymbols& sym) {
  // Only the thread summarizing sym.proc gets here, so it owns the slot.
  ProcSlot& slot = slotOf(*sym.proc);
  if (!slot.idiomsScanned) {
    slot.idiomsScanned = true;
    // Scan every statement list once for (counter = 0, matching DO) pairs.
    std::function<void(const std::vector<StmtPtr>&)> scan =
        [&](const std::vector<StmtPtr>& body) {
          for (std::size_t k = 0; k < body.size(); ++k) {
            const Stmt& s = *body[k];
            scan(s.thenBody);
            scan(s.elseBody);
            scan(s.body);
            if (s.kind != Stmt::Kind::Do || k == 0) continue;
            const Stmt& init = *body[k - 1];
            // `counter = 0` immediately before the loop.
            if (init.kind != Stmt::Kind::Assign || init.lhs->kind != Expr::Kind::VarRef)
              continue;
            if (init.rhs->kind != Expr::Kind::IntLit || init.rhs->intValue != 0) continue;
            auto counter = sym.scalarId(init.lhs->name);
            auto index = sym.scalarId(s.doVar);
            if (!counter || !index || sym.typeOf(init.lhs->name) != BaseType::Integer)
              continue;
            SymExpr lo = lowerValue(*s.lo, sym);
            SymExpr up = lowerValue(*s.hi, sym);
            if (lo.isPoisoned() || up.isPoisoned() || (s.step && s.step->kind != Expr::Kind::IntLit))
              continue;
            if (s.step && s.step->intValue != 1) continue;

            // Body shape: exactly one assignment to the counter, inside a
            // one-armed IF whose condition is a single ArrayPred; the tested
            // array only ever written (if at all) before the test at the
            // tested subscript; no GOTOs.
            const Stmt* guardIf = nullptr;
            bool clean = true;
            int counterWrites = 0;
            std::vector<const Stmt*> arrayWritesBefore;
            for (const StmtPtr& c : s.body) {
              if (c->kind == Stmt::Kind::Goto || c->kind == Stmt::Kind::Call ||
                  c->kind == Stmt::Kind::Do) {
                clean = false;
                break;
              }
              if (c->kind == Stmt::Kind::If) {
                if (!c->elseBody.empty() || c->thenBody.size() != 1) {
                  clean = false;
                  break;
                }
                const Stmt& inc = *c->thenBody[0];
                if (inc.kind == Stmt::Kind::Assign && inc.lhs->kind == Expr::Kind::VarRef &&
                    inc.lhs->name == init.lhs->name) {
                  ++counterWrites;
                  guardIf = c.get();
                  // counter = counter + positive constant
                  const Expr& rhsInc = *inc.rhs;
                  bool okInc = rhsInc.kind == Expr::Kind::Binary &&
                               rhsInc.binOp == BinOp::Add &&
                               rhsInc.args[0]->kind == Expr::Kind::VarRef &&
                               rhsInc.args[0]->name == init.lhs->name &&
                               rhsInc.args[1]->kind == Expr::Kind::IntLit &&
                               rhsInc.args[1]->intValue > 0;
                  if (!okInc) clean = false;
                  continue;
                }
                clean = false;  // other conditional effects: stay out
                break;
              }
              if (c->kind == Stmt::Kind::Assign) {
                if (c->lhs->kind == Expr::Kind::VarRef && c->lhs->name == init.lhs->name) {
                  clean = false;  // unguarded counter write
                  break;
                }
                if (c->lhs->kind == Expr::Kind::ArrayRef) {
                  if (guardIf) {
                    clean = false;  // write after the test: values unstable
                    break;
                  }
                  arrayWritesBefore.push_back(c.get());
                }
              }
            }
            if (!clean || counterWrites != 1 || !guardIf) continue;

            Pred cond = lowerGuardQuantified(*guardIf->cond, sym);
            if (cond.isUnknown() || cond.clauses().size() != 1 ||
                cond.clauses()[0].atoms.size() != 1)
              continue;
            const Atom& pred = cond.clauses()[0].atoms[0];
            if (pred.kind() != Atom::Kind::ArrayPred) continue;
            // Stability: writes (before the test) must hit exactly the
            // tested element.
            bool stable = true;
            for (const Stmt* w : arrayWritesBefore) {
              auto wid = sym.arrayId(w->lhs->name);
              if (!wid) continue;
              if (wid->value != pred.predArray().value) continue;
              if (w->lhs->args.size() != 1 ||
                  !(lowerValue(*w->lhs->args[0], sym) == pred.expr()))
                stable = false;
            }
            // The predicate's RHS must be loop-invariant here (not the index).
            if (pred.predRhs().containsVar(*index)) stable = false;
            if (!stable) continue;

            slot.idioms.emplace(body[k].get(),
                                CounterIdiom{*counter, *index, std::move(lo), std::move(up), pred});
          }
        };
    scan(sym.proc->body);
  }
  auto it = slot.idioms.find(loop);
  return it == slot.idioms.end() ? nullptr : &it->second;
}

void SummaryAnalyzer::applyCounterRewrite(GarList& list, const CounterIdiom& idiom) const {
  if (!list.containsVar(idiom.counter)) return;
  GarList out;
  SymExpr counterVar = SymExpr::variable(idiom.counter);
  for (const Gar& g : list.gars()) {
    if (!g.guard().containsVar(idiom.counter)) {
      out.add(g);
      continue;
    }
    Pred rebuilt = g.guard().isUnknown() ? Pred::makeUnknown() : Pred::makeTrue();
    for (const Disjunct& clause : g.guard().clauses()) {
      bool isCounterEq =
          clause.atoms.size() == 1 && clause.atoms[0].kind() == Atom::Kind::Rel &&
          clause.atoms[0].op() == RelOp::EQ &&
          (clause.atoms[0].expr() == counterVar || clause.atoms[0].expr() == -counterVar);
      if (isCounterEq) {
        // (kc == 0 at exit) ⟺ ∀k∈[lo,up]: ¬q — exact, given kc = 0 enters
        // the loop and increments are positive.
        const Atom& p = idiom.pred;
        rebuilt = rebuilt && Pred::atom(Atom::forallPred(
                                 p.predArray(), p.logical(), idiom.index, p.expr(), p.predRhs(),
                                 idiom.lo, idiom.up, !p.logicalValue()));
        continue;
      }
      bool mentions = false;
      for (const Atom& a : clause.atoms) mentions = mentions || a.containsVar(idiom.counter);
      if (mentions) {
        // kc ≠ 0 or anything fancier: ∃-shaped, not representable.
        rebuilt = rebuilt && Pred::makeUnknown();
        continue;
      }
      Pred keep = Pred::makeFalse();
      for (const Atom& a : clause.atoms) keep = keep || Pred::atom(a);
      rebuilt = rebuilt && keep;
    }
    out.add(Gar::make(std::move(rebuilt), g.region(), psi_));
  }
  list = std::move(out);
}

void SummaryAnalyzer::taintQuantified(GarList& list, const std::vector<ArrayId>& written) const {
  if (written.empty()) return;
  auto hit = [&](const Atom& a) {
    for (ArrayId w : written)
      if (w.value == a.predArray().value) return true;
    return false;
  };
  GarList out;
  for (const Gar& g : list.gars()) {
    Pred guard = taintPred(g.guard(), hit);
    out.add(Gar::make(std::move(guard), g.region(), psi_));
  }
  list = std::move(out);
}

void SummaryAnalyzer::taintAllQuantified(GarList& list) const {
  GarList out;
  for (const Gar& g : list.gars())
    out.add(Gar::make(taintPred(g.guard(), [](const Atom&) { return true; }), g.region(), psi_));
  list = std::move(out);
}

void SummaryAnalyzer::psiRewrite(GarList& list, VarId index) const {
  VarId psi = psi_.dim1;
  if (!psi.isValid()) return;
  GarList out;
  for (const Gar& g : list.gars()) {
    const Region& r = g.region();
    bool applicable = r.rank() == 1 && !r.dims()[0].isUnknown() && r.dims()[0].isPoint() &&
                      r.dims()[0].lo.containsVar(index);
    if (!applicable) {
      out.add(g);
      continue;
    }
    const SymExpr& point = r.dims()[0].lo;
    bool changed = false;
    Pred rebuilt = g.guard().isUnknown() ? Pred::makeUnknown() : Pred::makeTrue();
    for (const Disjunct& clause : g.guard().clauses()) {
      Pred keep = Pred::makeFalse();
      for (const Atom& a : clause.atoms) {
        if (a.kind() == Atom::Kind::ArrayPred && a.expr() == point &&
            !a.predRhs().containsVar(index)) {
          changed = true;
          keep = keep || Pred::atom(Atom::arrayPred(a.predArray(), a.logical(),
                                                    SymExpr::variable(psi), a.predRhs(),
                                                    a.logicalValue()));
        } else {
          keep = keep || Pred::atom(a);
        }
      }
      rebuilt = rebuilt && keep;
    }
    out.add(changed ? Gar::make(std::move(rebuilt), r, psi_) : g);
  }
  list = std::move(out);
}

}  // namespace panorama
