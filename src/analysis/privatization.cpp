// Array privatization (§3.2.1): candidacy, the UE_i ∩ MOD_{<i} = ∅ test,
// and last-value (copy-out) analysis. Every decision taken here is also
// recorded into the loop's DecisionTrail (obs/provenance.h), the only
// writer of a trail: the report layer renders it for --explain. The
// ProvenanceScope around each emptiness query only names the running test
// for the cold query spans --trace and --profile show.
#include <algorithm>

#include "panorama/analysis/analysis.h"
#include "panorama/obs/trace.h"

namespace panorama {

namespace {

using obs::EvidenceKind;

/// Renders a (possibly empty) GarList for provenance details.
std::string listText(const GarList& list, const SemaResult& sema) {
  return list.empty() ? "{}" : list.str(sema.symbols, sema.arrays);
}

}  // namespace

const char* toString(LoopClass c) {
  switch (c) {
    case LoopClass::Parallel: return "parallel";
    case LoopClass::ParallelAfterPrivatization: return "parallel (after privatization)";
    case LoopClass::Serial: return "serial";
  }
  return "?";
}

Truth LoopParallelizer::intersectionEmpty(const GarList& a, const GarList& b,
                                          const CmpCtx& ctx) const {
  if (a.empty() || b.empty()) return Truth::True;
  return garIntersectionEmpty(a, b, ctx);
}

CmpCtx LoopParallelizer::loopCtx(const LoopSummary& ls) const {
  ConstraintSet cs;
  if (!ls.boundsKnown) return CmpCtx{ConstraintSet{}, analyzer_.psi()};
  SymExpr I = SymExpr::variable(ls.bounds.index);
  auto sc = ls.bounds.step.constantValue();
  if (sc && *sc > 0) {
    cs.addExprLE0(ls.bounds.lo - I);
    cs.addExprLE0(I - ls.bounds.up);
  } else if (sc && *sc < 0) {
    cs.addExprLE0(ls.bounds.up - I);
    cs.addExprLE0(I - ls.bounds.lo);
  }
  return CmpCtx{std::move(cs), analyzer_.psi()};
}

LoopAnalysis LoopParallelizer::analyzeLoop(const Stmt& doStmt, const Procedure& proc) {
  LoopAnalysis la;
  la.loop = &doStmt;
  la.procName = proc.name;
  la.line = static_cast<int>(doStmt.loc.line);

  obs::Span span("analysis.loop", proc.name + " DO " + doStmt.doVar);
  if (span.active()) span.arg("line", std::to_string(la.line));

  const LoopSummary* lsp = analyzer_.loopSummary(&doStmt);
  if (!lsp) {
    la.serialReason = "loop was not summarized (condensed or unreachable)";
    la.provenance.add(EvidenceKind::NotSummarized, "", Truth::Unknown, la.serialReason);
    la.provenance.add(EvidenceKind::Classification, toString(la.classification), Truth::Unknown,
                      la.serialReason);
    return la;
  }
  const LoopSummary& ls = *lsp;
  la.boundsKnown = ls.boundsKnown;
  if (!ls.boundsKnown) {
    la.serialReason = "loop header is not symbolically analyzable";
    la.provenance.add(EvidenceKind::UnanalyzableHeader, "", Truth::Unknown, la.serialReason);
    classifyScalars(doStmt, proc, la);
    la.provenance.add(EvidenceKind::Classification, toString(la.classification), Truth::Unknown,
                      la.serialReason);
    return la;
  }

  CmpCtx ctx = loopCtx(ls);
  const ProcSymbols& sym = analyzer_.sema().of(proc);

  // Gather every array the loop touches.
  std::vector<ArrayId> touched;
  for (ArrayId a : ls.modIter.arrays()) touched.push_back(a);
  for (ArrayId a : ls.ueIter.arrays()) touched.push_back(a);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  std::vector<ArrayId> privatized;
  for (ArrayId array : touched) {
    ArrayPrivatization ap;
    ap.array = array;
    ap.name = analyzer_.sema().arrays.name(array);
    for (const auto& [local, id] : sym.arrayIds)
      if (id == array) ap.name = local;

    GarList modA = ls.modIter.forArray(array);
    GarList ueA = ls.ueIter.forArray(array);
    ap.written = !modA.empty();

    // §3.2.1 candidacy: the iteration's writes must not move with the index
    // — a property of the *subscripts* (guards may mention the index freely).
    bool subscriptsIndexFree = true;
    for (const Gar& g : modA.gars())
      subscriptsIndexFree = subscriptsIndexFree && !g.region().containsVar(ls.bounds.index);
    ap.candidate = ap.written && subscriptsIndexFree;
    if (!ap.written) {
      ap.reason = "read-only in this loop";
      la.arrays.push_back(std::move(ap));
      continue;
    }
    la.provenance.add(EvidenceKind::Candidacy, ap.name,
                      ap.candidate ? Truth::True : Truth::False,
                      ap.candidate ? "per-iteration writes are index-free"
                                   : "writes are indexed by the loop variable");
    if (!ap.candidate) {
      ap.reason = "writes are indexed by the loop variable";
      la.arrays.push_back(std::move(ap));
      continue;
    }

    GarList modBeforeA = ls.modBefore.forArray(array);
    Truth flowFree;
    {
      obs::ProvenanceScope scope("flow-test " + ap.name);
      flowFree = intersectionEmpty(ueA, modBeforeA, ctx);
    }
    ap.privatizable = flowFree == Truth::True;
    ap.reason = ap.privatizable
                    ? "UE_i ∩ MOD_<i = ∅"
                    : "cannot prove UE_i ∩ MOD_<i = ∅";
    la.provenance.add(EvidenceKind::FlowTest, ap.name, flowFree,
                      ap.privatizable
                          ? "UE_i ∩ MOD_<i = ∅ — no loop-carried flow reaches the array"
                          : "UE_i = " + listText(ueA, analyzer_.sema()) +
                                " not provably disjoint from MOD_<i = " +
                                listText(modBeforeA, analyzer_.sema()));
    if (ap.privatizable) {
      // Live-out: the local probe sees only this procedure's continuation;
      // a formal or COMMON array may be read by the caller, so it must be
      // assumed live (the paper defers to the live analyses of [22,37,27]).
      bool escapes = false;
      {
        bool isFormal = false;
        for (const auto& [local, id] : sym.arrayIds)
          if (id == array)
            isFormal = std::find(proc.params.begin(), proc.params.end(), local) !=
                       proc.params.end();
        bool isLocal =
            analyzer_.sema().arrays.name(array).starts_with(proc.name + "::");
        escapes = isFormal || !isLocal;
      }
      Truth liveOut =
          intersectionEmpty(ls.mod.forArray(array), ls.ueAfter.forArray(array),
                            CmpCtx{ConstraintSet{}, analyzer_.psi()});
      ap.needsCopyOut = escapes || liveOut != Truth::True;
      if (ap.needsCopyOut) {
        // Last-value copy (LASTPRIVATE) reproduces serial results only when
        // the final iteration rewrites every live element — i.e. the writes
        // are iteration-independent in both subscripts (candidacy) and
        // guards. Iteration-dependent or unknown guards demote.
        bool lastIterationRewritesAll = true;
        for (const Gar& g : modA.gars()) {
          if (g.guard().isUnknown() || g.guard().containsVar(ls.bounds.index))
            lastIterationRewritesAll = false;
        }
        if (!lastIterationRewritesAll) {
          ap.privatizable = false;
          ap.reason = "live after the loop, but the last iteration may not rewrite it";
          la.provenance.add(EvidenceKind::CopyOutDemotion, ap.name, Truth::Unknown,
                            "needs a last-value copy but the final iteration may not rewrite "
                            "every live element (iteration-dependent or unknown write guard)");
        }
      }
      if (ap.privatizable) privatized.push_back(array);
    }
    la.arrays.push_back(std::move(ap));
  }

  // §3.2.2 dependence tests on the non-privatized remainder.
  auto remainder = [&](const GarList& list) {
    GarList out;
    for (const Gar& g : list.gars())
      if (std::find(privatized.begin(), privatized.end(), g.array()) == privatized.end())
        out.add(g);
    return out;
  };
  GarList ueRem = remainder(ls.ueIter);
  GarList modRem = remainder(ls.modIter);
  GarList beforeRem = remainder(ls.modBefore);
  GarList afterRem = remainder(ls.modAfter);

  {
    obs::ProvenanceScope scope("carried-flow");
    la.noCarriedFlow = intersectionEmpty(ueRem, beforeRem, ctx);
  }
  la.provenance.add(EvidenceKind::DependenceTest, "flow", la.noCarriedFlow,
                    la.noCarriedFlow == Truth::True
                        ? "UE_i ∩ MOD_<i = ∅ on the non-privatized remainder"
                        : "UE_i = " + listText(ueRem, analyzer_.sema()) +
                              " not provably disjoint from MOD_<i = " +
                              listText(beforeRem, analyzer_.sema()));
  Truth out1, out2;
  {
    obs::ProvenanceScope scope("carried-output");
    out1 = intersectionEmpty(modRem, beforeRem, ctx);
    out2 = intersectionEmpty(modRem, afterRem, ctx);
  }
  la.noCarriedOutput =
      (out1 == Truth::True && out2 == Truth::True) ? Truth::True : Truth::Unknown;
  la.provenance.add(EvidenceKind::DependenceTest, "output", la.noCarriedOutput,
                    la.noCarriedOutput == Truth::True
                        ? "MOD_i ∩ MOD_<i = ∅ and MOD_i ∩ MOD_>i = ∅ on the remainder"
                        : std::string("MOD_i overlaps ") +
                              (out1 != Truth::True ? "MOD_<i" : "MOD_>i") +
                              " on the remainder: MOD_i = " + listText(modRem, analyzer_.sema()));
  // The anti test uses UE_i. §3.2.2's DE_i refinement is not applied, so
  // the analysis runs without DE sets (AnalysisOptions::computeDE).
  {
    obs::ProvenanceScope scope("carried-anti");
    la.noCarriedAnti = intersectionEmpty(ueRem, afterRem, ctx);
  }
  la.provenance.add(EvidenceKind::DependenceTest, "anti", la.noCarriedAnti,
                    la.noCarriedAnti == Truth::True
                        ? "UE_i ∩ MOD_>i = ∅ on the remainder"
                        : "UE_i = " + listText(ueRem, analyzer_.sema()) +
                              " not provably disjoint from MOD_>i = " +
                              listText(afterRem, analyzer_.sema()));

  classifyScalars(doStmt, proc, la);
  bool scalarsOk = std::all_of(la.scalars.begin(), la.scalars.end(), [](const ScalarInfo& s) {
    return s.privatizable || s.reduction;
  });
  for (const ScalarInfo& si : la.scalars) {
    if (si.reduction)
      la.provenance.add(EvidenceKind::ScalarReduction, si.name, Truth::True,
                        std::string("recognized ") + si.reductionOp + " reduction accumulator");
    else if (!si.privatizable)
      la.provenance.add(EvidenceKind::ScalarExposed, si.name, Truth::Unknown,
                        "read before its iteration-local definition");
  }

  if (la.noCarriedFlow == Truth::True && la.noCarriedOutput == Truth::True &&
      la.noCarriedAnti == Truth::True && scalarsOk) {
    // Did any privatized array actually need it (it carried an output/anti
    // dependence in the original loop)?
    bool neededPrivatization = false;
    for (ArrayId array : privatized) {
      GarList modA = ls.modIter.forArray(array);
      Truth selfOut = intersectionEmpty(modA, ls.modBefore.forArray(array), ctx);
      if (selfOut != Truth::True) neededPrivatization = true;
    }
    la.classification = neededPrivatization ? LoopClass::ParallelAfterPrivatization
                                            : LoopClass::Parallel;
  } else {
    la.classification = LoopClass::Serial;
    if (!scalarsOk)
      la.serialReason = "a scalar is used before being defined in the iteration";
    else if (la.noCarriedFlow != Truth::True)
      la.serialReason = "possible loop-carried flow dependence";
    else if (la.noCarriedOutput != Truth::True)
      la.serialReason = "possible loop-carried output dependence";
    else
      la.serialReason = "possible loop-carried anti dependence";
  }
  {
    std::string detail;
    if (la.classification == LoopClass::Serial) {
      detail = la.serialReason;
    } else {
      detail = "all three §3.2.2 tests proved absent";
      if (!privatized.empty()) {
        detail += "; privatized:";
        for (ArrayId array : privatized)
          for (const ArrayPrivatization& ap : la.arrays)
            if (ap.array == array) detail += " " + ap.name;
      }
    }
    la.provenance.add(EvidenceKind::Classification, toString(la.classification),
                      la.classification == LoopClass::Serial ? Truth::Unknown : Truth::True,
                      std::move(detail));
  }
  return la;
}

void LoopParallelizer::classifyScalars(const Stmt& doStmt, const Procedure& proc,
                                       LoopAnalysis& out) {
  const ProcSymbols& sym = analyzer_.sema().of(proc);

  // Scalars assigned in the body (excluding this loop's own index).
  std::set<std::string> assigned;
  std::set<std::string> exposed;   // read before a definite assignment
  std::set<std::string> definite;  // definitely assigned so far (top level)
  // Reduction recognition: accumulations seen (name -> op) and names used in
  // any non-accumulation position.
  std::map<std::string, char> accumOp;
  std::set<std::string> accumConflict;
  std::set<std::string> usedOutsideAccum;

  std::function<void(const Expr&)> noteOccurrences = [&](const Expr& e) {
    if (e.kind == Expr::Kind::VarRef && sym.isScalar(e.name)) usedOutsideAccum.insert(e.name);
    for (const ExprPtr& a : e.args) noteOccurrences(*a);
  };

  /// s = s op rest (op in + - *) with `rest` free of s? Returns the op.
  auto accumulationForm = [&](const Stmt& s) -> char {
    if (s.kind != Stmt::Kind::Assign || s.lhs->kind != Expr::Kind::VarRef) return 0;
    if (!sym.isScalar(s.lhs->name)) return 0;
    const Expr& rhs = *s.rhs;
    if (rhs.kind != Expr::Kind::Binary) return 0;
    char op = rhs.binOp == BinOp::Add   ? '+'
              : rhs.binOp == BinOp::Sub ? '+'  // s - e is a sum reduction too
              : rhs.binOp == BinOp::Mul ? '*'
                                        : 0;
    if (!op) return 0;
    const Expr* self = rhs.args[0].get();
    const Expr* rest = rhs.args[1].get();
    if (rhs.binOp != BinOp::Sub && self->kind != Expr::Kind::VarRef) std::swap(self, rest);
    if (self->kind != Expr::Kind::VarRef || self->name != s.lhs->name) return 0;
    // rest must not mention s.
    bool mentions = false;
    std::function<void(const Expr&)> scan = [&](const Expr& e) {
      if (e.kind == Expr::Kind::VarRef && e.name == s.lhs->name) mentions = true;
      for (const ExprPtr& a : e.args) scan(*a);
    };
    scan(*rest);
    return mentions ? 0 : op;
  };

  std::function<void(const Expr&)> reads = [&](const Expr& e) {
    if (e.kind == Expr::Kind::VarRef && sym.isScalar(e.name) && !definite.count(e.name) &&
        e.name != doStmt.doVar)
      exposed.insert(e.name);
    for (const ExprPtr& a : e.args) reads(*a);
  };

  // Path-sensitive-enough definite-assignment: within one statement list,
  // an assignment makes later statements of the *same path* defined; a
  // labeled statement is a potential GOTO entry that may have skipped every
  // definition made since the list was entered, so the set resets there.
  // Conditional bodies see (and then discard) their own additions.
  std::function<void(const std::vector<StmtPtr>&)> walkList =
      [&](const std::vector<StmtPtr>& body) {
        std::set<std::string> atEntry = definite;
        for (const StmtPtr& sp : body) {
          const Stmt& s = *sp;
          if (s.label != 0) definite = atEntry;  // a GOTO may land here
          switch (s.kind) {
            case Stmt::Kind::Assign: {
              reads(*s.rhs);
              char op = accumulationForm(s);
              if (op) {
                auto [it, fresh] = accumOp.emplace(s.lhs->name, op);
                if (!fresh && it->second != op) accumConflict.insert(s.lhs->name);
                // occurrences inside the accumulation's `rest` still count
                // as ordinary uses of OTHER scalars:
                const Expr& first = *s.rhs->args[0];
                bool firstIsSelf =
                    first.kind == Expr::Kind::VarRef && first.name == s.lhs->name;
                noteOccurrences(firstIsSelf ? *s.rhs->args[1] : *s.rhs->args[0]);
              } else {
                noteOccurrences(*s.rhs);
              }
              if (s.lhs->kind == Expr::Kind::ArrayRef) {
                for (const ExprPtr& sub : s.lhs->args) {
                  reads(*sub);
                  noteOccurrences(*sub);
                }
              } else if (s.lhs->kind == Expr::Kind::VarRef && sym.isScalar(s.lhs->name)) {
                assigned.insert(s.lhs->name);
                definite.insert(s.lhs->name);
                if (!op) usedOutsideAccum.insert(s.lhs->name);  // plain overwrite
              }
              break;
            }
            case Stmt::Kind::If: {
              reads(*s.cond);
              noteOccurrences(*s.cond);
              std::set<std::string> beforeBranch = definite;
              walkList(s.thenBody);
              definite = beforeBranch;
              walkList(s.elseBody);
              definite = std::move(beforeBranch);
              break;
            }
            case Stmt::Kind::Do: {
              reads(*s.lo);
              reads(*s.hi);
              noteOccurrences(*s.lo);
              noteOccurrences(*s.hi);
              if (s.step) reads(*s.step);
              if (s.step) noteOccurrences(*s.step);
              assigned.insert(s.doVar);
              definite.insert(s.doVar);
              std::set<std::string> beforeBody = definite;
              walkList(s.body);
              definite = std::move(beforeBody);  // may zero-trip
              break;
            }
            case Stmt::Kind::Call:
              for (const ExprPtr& a : s.args) {
                // A scalar passed by reference may be read and may be
                // written — conservatively a read, never a definite write.
                reads(*a);
                noteOccurrences(*a);
              }
              break;
            default:
              break;
          }
        }
        definite = std::move(atEntry);
      };
  walkList(doStmt.body);

  for (const std::string& name : assigned) {
    if (name == doStmt.doVar) continue;
    ScalarInfo si;
    si.name = name;
    if (auto id = sym.scalarId(name)) si.var = *id;
    si.privatizable = !exposed.count(name);
    auto op = accumOp.find(name);
    si.reduction = !si.privatizable && op != accumOp.end() && !accumConflict.count(name) &&
                   !usedOutsideAccum.count(name);
    if (si.reduction) si.reductionOp = op->second;
    out.scalars.push_back(std::move(si));
  }
}

}  // namespace panorama
