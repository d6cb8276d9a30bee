// SUM_bb (§4.1): folds one basic block backward through (mod, ue), killing
// uses against preceding writes and substituting scalar definitions on the
// fly — the "Step 2" note of SUM_segment made statement-precise.
#include "panorama/summary/summary.h"

namespace panorama {

void SummaryAnalyzer::foldBlockBackward(const HsgNode& block, const ProcSymbols& sym,
                                        GarList& mod, GarList& ue, GarList* de) {
  ++stats_.blockSteps;
  for (auto it = block.stmts.rbegin(); it != block.stmts.rend(); ++it) {
    const Stmt& s = **it;
    if (s.kind != Stmt::Kind::Assign) continue;  // CONTINUE/RETURN/GOTO: no data effect

    if (s.lhs->kind == Expr::Kind::ArrayRef) {
      GarList write = GarList::single(Gar::make(Pred::makeTrue(), lowerRef(*s.lhs, sym), psi_));
      ue = garSubtract(ue, write, ctx_);  // this write kills later exposure
      mod = garUnion(mod, write, ctx_, &sema_->arrays);
      GarList uses;
      addUses(*s.rhs, sym, uses);
      for (const ExprPtr& sub : s.lhs->args) addUses(*sub, sym, uses);  // subscripts read
      ue = garUnion(ue, uses, ctx_, &sema_->arrays);
      if (de) {
        // DE (§3.2.2): a use survives only past the writes that follow it —
        // which is exactly `mod` at this point (own write included, so the
        // read of A(i) = A(i)+1 is not downward exposed).
        *de = garUnion(*de, garSubtract(uses, mod, ctx_), ctx_, &sema_->arrays);
      }
      if (options_.quantified) {
        if (auto id = sym.arrayId(s.lhs->name)) {
          std::vector<ArrayId> written{*id};
          taintQuantified(ue, written);
          taintQuantified(mod, written);
          if (de) taintQuantified(*de, written);
        }
      }
      note(mod);
      note(ue);
      continue;
    }

    // Scalar assignment: v := rhs. Everything accumulated so far (which is
    // downstream of this statement) referred to v's post-assignment value;
    // rewrite it in terms of this point's state. An unlowerable RHS poisons
    // v's occurrences — degrading affected GARs to Ω/Δ, never lying.
    if (s.lhs->kind == Expr::Kind::VarRef) {
      if (auto id = sym.scalarId(s.lhs->name)) {
        SymExpr value = lowerValue(*s.rhs, sym);
        if (mod.containsVar(*id)) mod = mod.substituted(*id, value);
        if (ue.containsVar(*id)) ue = ue.substituted(*id, value);
        if (de && de->containsVar(*id)) *de = de->substituted(*id, value);
      }
      GarList uses;
      addUses(*s.rhs, sym, uses);  // RHS reads happen in the pre-assignment state
      ue = garUnion(ue, uses, ctx_, &sema_->arrays);
      if (de) *de = garUnion(*de, garSubtract(uses, mod, ctx_), ctx_, &sema_->arrays);
    }
  }
}

}  // namespace panorama
