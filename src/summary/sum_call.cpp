// SUM_call (§4.1): the callee's memoized summary with real-to-formal
// mapping — scalar formals substitute to actual expressions, array formals
// remap (identically shaped, or 1-D with an element-offset actual), COMMON
// variables pass through unchanged.
#include "panorama/summary/summary.h"

namespace panorama {

namespace {

struct ArrayMap {
  enum class Kind { Drop, OmegaOnCaller, Shifted } kind = Kind::Drop;
  ArrayId caller;                // valid unless Drop
  std::vector<SymExpr> offsets;  // per-dimension index shift (Shifted)
};

}  // namespace

SummaryAnalyzer::NodeSets SummaryAnalyzer::sumCall(const HsgNode& n, const ProcSymbols& sym) {
  const Stmt& call = *n.callStmt;
  ++stats_.callMappings;
  NodeSets out;

  // Argument expressions are evaluated at the call: their array reads are
  // uses (this also covers by-reference element actuals, over-approximately).
  for (const ExprPtr& a : call.args) addUses(*a, sym, out.ue);

  const Procedure* callee = program_->findProcedure(call.callee);
  auto degradeAll = [&]() {
    // No usable summary: Ω on every array actual and every COMMON array the
    // callee (transitively) could reach. Without interprocedural analysis we
    // use the whole program's commons — structural, not flow, information.
    for (const ExprPtr& a : call.args) {
      std::string_view name = a->kind == Expr::Kind::VarRef || a->kind == Expr::Kind::ArrayRef
                                  ? std::string_view(a->name)
                                  : std::string_view();
      if (name.empty()) continue;
      if (auto id = sym.arrayId(name)) {
        int rank = sema_->arrays.shape(*id).rank();
        out.mod.add(Gar::omega(*id, rank));
        out.ue.add(Gar::omega(*id, rank));
      }
    }
    for (std::size_t k = 0; k < sema_->arrays.size(); ++k) {
      ArrayId id{static_cast<std::uint32_t>(k)};
      const std::string& gname = sema_->arrays.name(id);
      bool procLocal = false;
      for (const Procedure& pr : program_->procedures)
        if (gname.starts_with(pr.name + "::")) procLocal = true;
      if (!procLocal) {  // COMMON naming convention: "blk::var"
        out.mod.add(Gar::omega(id, sema_->arrays.shape(id).rank()));
        out.ue.add(Gar::omega(id, sema_->arrays.shape(id).rank()));
      }
    }
  };

  if (!callee || !options_.interprocedural) {
    degradeAll();
    if (options_.computeDE) out.de = out.ue;
    return out;
  }

  const ProcSummary& cs = procSummary(*callee);
  const ProcSymbols& calleeSym = sema_->of(*callee);

  // Build the real-to-formal maps.
  std::map<VarId, SymExpr> scalarMap;
  std::map<ArrayId, ArrayMap> arrayMap;
  for (std::size_t i = 0; i < callee->params.size() && i < call.args.size(); ++i) {
    const std::string& formal = callee->params[i];
    const Expr& actual = *call.args[i];
    if (calleeSym.isArray(formal)) {
      ArrayId fid = *calleeSym.arrayId(formal);
      const ArrayShape& fshape = sema_->arrays.shape(fid);
      ArrayMap m;
      if ((actual.kind == Expr::Kind::VarRef || actual.kind == Expr::Kind::ArrayRef) &&
          sym.isArray(actual.name)) {
        // A named actual is at least attributable: default to Ω on it.
        m.kind = ArrayMap::Kind::OmegaOnCaller;
        m.caller = *sym.arrayId(actual.name);
      }
      if (actual.kind == Expr::Kind::VarRef && sym.isArray(actual.name)) {
        ArrayId aid = *sym.arrayId(actual.name);
        const ArrayShape& ashape = sema_->arrays.shape(aid);
        if (ashape.rank() == fshape.rank()) {
          m.kind = ArrayMap::Kind::Shifted;
          for (int d = 0; d < fshape.rank(); ++d) {
            // Same memory: formal index f maps to actual index
            // f - lb(formal) + lb(actual).
            SymExpr off = ashape.declaredDims[d].lo - fshape.declaredDims[d].lo;
            m.offsets.push_back(off.isPoisoned() ? SymExpr::constant(0) : std::move(off));
          }
        }
      } else if (actual.kind == Expr::Kind::ArrayRef && sym.isArray(actual.name) &&
                 fshape.rank() == 1 && actual.args.size() == 1) {
        // 1-D offset passing: CALL f(A(k)) — formal index f maps to
        // A(f - lb(formal) + k).
        ArrayId aid = *sym.arrayId(actual.name);
        if (sema_->arrays.shape(aid).rank() == 1) {
          SymExpr k = lowerValue(*actual.args[0], sym);
          if (!k.isPoisoned()) {
            m.kind = ArrayMap::Kind::Shifted;
            m.offsets.push_back(k - fshape.declaredDims[0].lo);
          }
        }
      }
      arrayMap[fid] = std::move(m);
      continue;
    }
    // Scalar formal.
    if (auto fid = calleeSym.scalarId(formal)) {
      scalarMap[*fid] = lowerValue(actual, sym);
      // By-reference element actual written by the callee: a tainted write.
      if (actual.kind == Expr::Kind::ArrayRef && sym.isArray(actual.name)) {
        bool modified = std::find(cs.modifiedScalars.begin(), cs.modifiedScalars.end(), *fid) !=
                        cs.modifiedScalars.end();
        if (modified)
          out.mod.add(Gar::make(Pred::makeUnknown(), lowerRef(actual, sym), psi_));
      }
    }
  }

  // Map the callee's summaries into the caller's frame. Quantified atoms
  // name callee-frame arrays; remapping them is future work — they degrade
  // to Δ at the boundary.
  auto mapList = [&](const GarList& list) {
    GarList dst;
    for (const Gar& g : list.gars()) {
      Gar mapped = g.substituted(scalarMap);
      auto am = arrayMap.find(mapped.array());
      if (am == arrayMap.end()) {
        // COMMON (or unexpected local): ids are global, keep as-is.
        dst.add(std::move(mapped));
        continue;
      }
      if (am->second.kind == ArrayMap::Kind::Drop) continue;  // no aliasable actual
      if (am->second.kind == ArrayMap::Kind::OmegaOnCaller) {
        dst.add(Gar::omega(am->second.caller, sema_->arrays.shape(am->second.caller).rank()));
        continue;
      }
      std::vector<SymRange> dims = mapped.region().dims();
      for (std::size_t d = 0; d < dims.size() && d < am->second.offsets.size(); ++d) {
        const SymExpr& off = am->second.offsets[d];
        if (off.isZero() || dims[d].isUnknown()) continue;
        dims[d].lo = dims[d].lo + off;
        dims[d].up = dims[d].up + off;
      }
      dst.add(Gar::make(mapped.guard(), Region(am->second.caller, dims), psi_));
    }
    if (options_.quantified) taintAllQuantified(dst);
    return dst;
  };
  out.mod = garUnion(out.mod, mapList(cs.mod), ctx_, &sema_->arrays);
  out.ue = garUnion(out.ue, mapList(cs.ue), ctx_, &sema_->arrays);
  if (options_.computeDE) out.de = garUnion(out.de, mapList(cs.de), ctx_, &sema_->arrays);
  note(out.mod);
  note(out.ue);
  return out;
}

}  // namespace panorama
