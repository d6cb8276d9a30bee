#include "panorama/ast/sema.h"

#include <algorithm>
#include <functional>
#include <set>

namespace panorama {

namespace {

const std::set<std::string, std::less<>>& intrinsics() {
  static const std::set<std::string, std::less<>> names{
      "max", "min", "mod", "abs", "iabs", "sqrt", "exp", "log", "sin", "cos",
      "tan", "atan", "sign", "dim", "int", "nint", "float", "real", "dble",
      "amax1", "amin1", "max0", "min0", "dabs", "dsqrt", "dexp", "dlog"};
  return names;
}

BaseType implicitType(std::string_view name) {
  return !name.empty() && name[0] >= 'i' && name[0] <= 'n' ? BaseType::Integer
                                                           : BaseType::Real;
}

/// Walks every expression of a statement tree.
void forEachExpr(std::vector<StmtPtr>& body, const std::function<void(ExprPtr&)>& fn) {
  std::function<void(StmtPtr&)> visitStmt = [&](StmtPtr& s) {
    if (!s) return;
    if (s->lhs) fn(s->lhs);
    if (s->rhs) fn(s->rhs);
    if (s->cond) fn(s->cond);
    if (s->lo) fn(s->lo);
    if (s->hi) fn(s->hi);
    if (s->step) fn(s->step);
    for (ExprPtr& a : s->args) fn(a);
    for (StmtPtr& c : s->thenBody) visitStmt(c);
    for (StmtPtr& c : s->elseBody) visitStmt(c);
    for (StmtPtr& c : s->body) visitStmt(c);
  };
  for (StmtPtr& s : body) visitStmt(s);
}

void forEachStmt(std::vector<StmtPtr>& body, const std::function<void(Stmt&)>& fn) {
  std::function<void(StmtPtr&)> visitStmt = [&](StmtPtr& s) {
    if (!s) return;
    fn(*s);
    for (StmtPtr& c : s->thenBody) visitStmt(c);
    for (StmtPtr& c : s->elseBody) visitStmt(c);
    for (StmtPtr& c : s->body) visitStmt(c);
  };
  for (StmtPtr& s : body) visitStmt(s);
}

class Analyzer {
 public:
  Analyzer(Program& program, DiagnosticEngine& diags) : program_(program), diags_(diags) {}

  /// Session variant: intern into persistent tables (ids stable across
  /// submits); array re-declarations update the stored shape.
  Analyzer(Program& program, DiagnosticEngine& diags, SymbolTable symbols, ArrayTable arrays)
      : program_(program), diags_(diags), updateShapes_(true) {
    result_.symbols = std::move(symbols);
    result_.arrays = std::move(arrays);
  }

  std::optional<SemaResult> run() {
    for (Procedure& proc : program_.procedures) {
      if (result_.procs.contains(proc.name))
        diags_.error(proc.loc, "duplicate procedure '" + proc.name + "'");
      analyzeProcedure(proc);
      if (proc.isMain) result_.main = &proc;
    }
    if (!result_.main && !program_.procedures.empty()) result_.main = &program_.procedures[0];
    checkCalls();
    if (!topoSort()) return std::nullopt;
    if (diags_.hasErrors()) return std::nullopt;
    return std::move(result_);
  }

 private:
  std::string commonKeyFor(const Procedure& proc, std::string_view var) const {
    for (const CommonBlock& blk : proc.commons) {
      for (const std::string& v : blk.vars) {
        if (v == var) return (blk.name.empty() ? std::string("blank") : blk.name) + "::" + v;
      }
    }
    return "";
  }

  void analyzeProcedure(Procedure& proc) {
    ProcSymbols sym;
    sym.proc = &proc;

    // PARAMETER constants fold eagerly, in order.
    for (const ParamConst& pc : proc.paramConsts) {
      SymExpr value = lowerInt(*pc.value, sym);
      if (value.isPoisoned())
        diags_.error(proc.loc, "PARAMETER '" + pc.name + "' is not a constant expression");
      sym.consts[pc.name] = std::move(value);
    }

    // Declared names: arrays get interned shapes, scalars get global ids.
    auto internScalar = [&](const std::string& name, BaseType type) {
      if (sym.scalars.contains(name) || sym.consts.contains(name)) return;
      std::string common = commonKeyFor(proc, name);
      std::string key = common.empty() ? proc.name + "::" + name : common;
      sym.scalars.emplace(name, result_.symbols.intern(key));
      sym.types.emplace(name, type);
    };

    for (const VarDecl& d : proc.decls) {
      if (!d.isArray()) {
        internScalar(d.name, d.type);
      }
    }
    for (const std::string& p : proc.params) {
      const VarDecl* d = proc.findDecl(p);
      if (!d || !d->isArray()) internScalar(p, d ? d->type : implicitType(p));
    }

    // Arrays (after scalars so symbolic bounds resolve).
    for (const VarDecl& d : proc.decls) {
      if (!d.isArray()) continue;
      std::vector<SymRange> shape;
      for (const VarDecl::DimBound& b : d.dims) {
        SymExpr lo = b.lo ? lowerInt(*b.lo, sym) : SymExpr::constant(1);
        SymExpr up = b.up ? lowerInt(*b.up, sym) : SymExpr::poisoned();  // '*'
        shape.push_back(SymRange{std::move(lo), std::move(up), SymExpr::constant(1)});
      }
      std::string common = commonKeyFor(proc, d.name);
      std::string key = common.empty() ? proc.name + "::" + d.name : common;
      sym.arrayIds.emplace(d.name, updateShapes_
                                       ? result_.arrays.internOrUpdate(key, std::move(shape))
                                       : result_.arrays.intern(key, std::move(shape)));
      sym.types.emplace(d.name, d.type);
    }

    // Implicit scalars: any name referenced but not declared.
    forEachExpr(proc.body, [&](ExprPtr& e) {
      std::function<void(Expr&)> visit = [&](Expr& x) {
        if (x.kind == Expr::Kind::VarRef && !sym.isArray(x.name) && !sym.consts.contains(x.name))
          internScalar(x.name, implicitType(x.name));
        for (ExprPtr& a : x.args) visit(*a);
      };
      visit(*e);
    });
    forEachStmt(proc.body, [&](Stmt& s) {
      if (s.kind == Stmt::Kind::Do && !s.doVar.empty() && !sym.isArray(s.doVar))
        internScalar(s.doVar, implicitType(s.doVar));
    });

    // Classify name(args) references: array element, intrinsic, or error.
    forEachExpr(proc.body, [&](ExprPtr& e) {
      std::function<void(Expr&)> visit = [&](Expr& x) {
        for (ExprPtr& a : x.args) visit(*a);
        if (x.kind != Expr::Kind::ArrayRef) return;
        if (sym.isArray(x.name)) {
          auto shape = result_.arrays.shape(*sym.arrayId(x.name));
          if (static_cast<int>(x.args.size()) != shape.rank())
            diags_.error(x.loc, "array '" + x.name + "' expects " +
                                    std::to_string(shape.rank()) + " subscript(s), got " +
                                    std::to_string(x.args.size()));
          return;
        }
        if (isIntrinsicName(x.name)) {
          x.kind = Expr::Kind::Intrinsic;
          return;
        }
        diags_.error(x.loc, "'" + x.name + "' is neither a declared array nor an intrinsic");
      };
      visit(*e);
    });

    result_.procs.emplace(proc.name, std::move(sym));
  }

  void checkCalls() {
    for (Procedure& proc : program_.procedures) {
      std::map<std::string, const Procedure*> callees;
      forEachStmt(proc.body, [&](Stmt& s) {
        if (s.kind != Stmt::Kind::Call) return;
        const Procedure* callee = program_.findProcedure(s.callee);
        if (!callee) {
          diags_.error(s.loc, "call to undefined subroutine '" + s.callee + "'");
          return;
        }
        if (callee->params.size() != s.args.size())
          diags_.error(s.loc, "subroutine '" + s.callee + "' expects " +
                                  std::to_string(callee->params.size()) + " argument(s), got " +
                                  std::to_string(s.args.size()));
        callees.emplace(callee->name, callee);
      });
      std::vector<const Procedure*>& out = result_.procs.at(proc.name).callees;
      for (const auto& [name, callee] : callees) out.push_back(callee);
    }
  }

  bool topoSort() {
    // DFS with cycle detection; emit callees before callers.
    std::map<const Procedure*, int> state;  // 0 unseen, 1 in progress, 2 done
    bool ok = true;
    std::function<void(const Procedure&)> dfs = [&](const Procedure& p) {
      int& st = state[&p];
      if (st == 2) return;
      if (st == 1) {
        diags_.error({}, "recursive call cycle through '" + p.name + "' (unsupported)");
        ok = false;
        return;
      }
      st = 1;
      for (const Procedure* callee : result_.procs.at(p.name).callees) dfs(*callee);
      st = 2;
      result_.bottomUpOrder.push_back(&p);
    };
    for (const Procedure& proc : program_.procedures) dfs(proc);
    return ok;
  }

  Program& program_;
  DiagnosticEngine& diags_;
  SemaResult result_;
  bool updateShapes_ = false;
};

}  // namespace

std::optional<VarId> ProcSymbols::scalarId(std::string_view name) const {
  auto it = scalars.find(std::string(name));
  if (it == scalars.end()) return std::nullopt;
  return it->second;
}

std::optional<ArrayId> ProcSymbols::arrayId(std::string_view name) const {
  auto it = arrayIds.find(std::string(name));
  if (it == arrayIds.end()) return std::nullopt;
  return it->second;
}

BaseType ProcSymbols::typeOf(std::string_view name) const {
  auto it = types.find(std::string(name));
  if (it != types.end()) return it->second;
  return implicitType(name);
}

bool isIntrinsicName(std::string_view name) { return intrinsics().contains(name); }

std::optional<SemaResult> analyze(Program& program, DiagnosticEngine& diags) {
  return Analyzer(program, diags).run();
}

std::optional<SemaResult> analyze(Program& program, DiagnosticEngine& diags,
                                  SymbolTable symbols, ArrayTable arrays) {
  return Analyzer(program, diags, std::move(symbols), std::move(arrays)).run();
}

SymExpr lowerInt(const Expr& e, const ProcSymbols& sym) {
  switch (e.kind) {
    case Expr::Kind::IntLit:
      return SymExpr::constant(e.intValue);
    case Expr::Kind::RealLit: {
      // Integral real literals (100.0, cutoffs, ...) participate in
      // real-valued comparisons; fractional ones stay outside the fragment.
      double r = e.realValue;
      if (r == static_cast<double>(static_cast<std::int64_t>(r)))
        return SymExpr::constant(static_cast<std::int64_t>(r));
      return SymExpr::poisoned();
    }
    case Expr::Kind::LogicalLit:
      return SymExpr::poisoned();
    case Expr::Kind::VarRef: {
      auto c = sym.consts.find(e.name);
      if (c != sym.consts.end()) return c->second;
      auto id = sym.scalarId(e.name);
      if (!id) return SymExpr::poisoned();
      return SymExpr::variable(*id);
    }
    case Expr::Kind::ArrayRef:
    case Expr::Kind::Intrinsic:
      // Subscripted subscripts and intrinsic calls sit outside the symbolic
      // fragment (§6 notes the same limitation for Panorama).
      return SymExpr::poisoned();
    case Expr::Kind::Unary:
      if (e.unOp == UnOp::Neg) return -lowerInt(*e.args[0], sym);
      return SymExpr::poisoned();
    case Expr::Kind::Binary: {
      SymExpr l = lowerInt(*e.args[0], sym);
      SymExpr r = lowerInt(*e.args[1], sym);
      switch (e.binOp) {
        case BinOp::Add: return l + r;
        case BinOp::Sub: return l - r;
        case BinOp::Mul: return l * r;
        case BinOp::Div: {
          auto rc = r.constantValue();
          if (!rc || *rc == 0) return SymExpr::poisoned();
          if (auto exact = l.divExact(*rc)) return *exact;
          return SymExpr::poisoned();  // inexact integer division
        }
        case BinOp::Pow: {
          auto rc = r.constantValue();
          if (!rc || *rc < 0 || *rc > 4) return SymExpr::poisoned();
          SymExpr acc = SymExpr::constant(1);
          for (std::int64_t k = 0; k < *rc; ++k) acc = acc * l;
          return acc;
        }
        default:
          return SymExpr::poisoned();  // relational/logical is not a value here
      }
    }
  }
  return SymExpr::poisoned();
}

bool isIntegerValued(const Expr& e, const ProcSymbols& sym) {
  switch (e.kind) {
    case Expr::Kind::IntLit:
      return true;
    case Expr::Kind::RealLit:
    case Expr::Kind::LogicalLit:
      return false;
    case Expr::Kind::VarRef:
      if (sym.consts.contains(e.name)) return true;
      return sym.typeOf(e.name) == BaseType::Integer;
    case Expr::Kind::ArrayRef:
      return sym.typeOf(e.name) == BaseType::Integer;
    case Expr::Kind::Intrinsic: {
      static const std::set<std::string, std::less<>> intReturning{"mod", "abs", "iabs",
                                                                   "max", "min", "int",
                                                                   "nint", "max0", "min0"};
      if (!intReturning.contains(e.name)) return false;
      return std::all_of(e.args.begin(), e.args.end(),
                         [&](const ExprPtr& a) { return isIntegerValued(*a, sym); });
    }
    case Expr::Kind::Unary:
      return e.unOp == UnOp::Neg && isIntegerValued(*e.args[0], sym);
    case Expr::Kind::Binary:
      switch (e.binOp) {
        case BinOp::Add:
        case BinOp::Sub:
        case BinOp::Mul:
        case BinOp::Div:
        case BinOp::Pow:
          return isIntegerValued(*e.args[0], sym) && isIntegerValued(*e.args[1], sym);
        default:
          return false;
      }
  }
  return false;
}

Pred lowerCond(const Expr& e, const ProcSymbols& sym) {
  switch (e.kind) {
    case Expr::Kind::LogicalLit:
      return e.logicalValue ? Pred::makeTrue() : Pred::makeFalse();
    case Expr::Kind::VarRef: {
      if (sym.typeOf(e.name) != BaseType::Logical) return Pred::makeUnknown();
      auto id = sym.scalarId(e.name);
      if (!id) return Pred::makeUnknown();
      return Pred::atom(Atom::logicalVar(*id, true));
    }
    case Expr::Kind::Unary:
      if (e.unOp == UnOp::Not) return !lowerCond(*e.args[0], sym);
      return Pred::makeUnknown();
    case Expr::Kind::Binary: {
      switch (e.binOp) {
        case BinOp::And:
          return lowerCond(*e.args[0], sym) && lowerCond(*e.args[1], sym);
        case BinOp::Or:
          return lowerCond(*e.args[0], sym) || lowerCond(*e.args[1], sym);
        case BinOp::Lt:
        case BinOp::Le:
        case BinOp::Gt:
        case BinOp::Ge:
        case BinOp::Eq:
        case BinOp::Ne: {
          SymExpr l = lowerInt(*e.args[0], sym);
          SymExpr r = lowerInt(*e.args[1], sym);
          if (l.isPoisoned() || r.isPoisoned()) return Pred::makeUnknown();
          const bool ints = isIntegerValued(*e.args[0], sym) && isIntegerValued(*e.args[1], sym);
          switch (e.binOp) {
            case BinOp::Lt: return Pred::atom(ints ? Atom::lt(l, r) : Atom::rlt(l, r));
            case BinOp::Le: return Pred::atom(ints ? Atom::le(l, r) : Atom::rle(l, r));
            case BinOp::Gt: return Pred::atom(ints ? Atom::gt(l, r) : Atom::rlt(r, l));
            case BinOp::Ge: return Pred::atom(ints ? Atom::ge(l, r) : Atom::rle(r, l));
            case BinOp::Eq: return Pred::atom(ints ? Atom::eq(l, r) : Atom::req(l, r));
            case BinOp::Ne: return Pred::atom(ints ? Atom::ne(l, r) : Atom::rne(l, r));
            default: return Pred::makeUnknown();
          }
        }
        default:
          return Pred::makeUnknown();
      }
    }
    default:
      return Pred::makeUnknown();
  }
}

}  // namespace panorama
