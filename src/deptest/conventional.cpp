// The conventional-analysis driver: collect every array reference of a DO
// loop body, run the pairwise memory-disambiguation tests, and refuse
// anything the tests cannot see through (CALLs, non-affine subscripts,
// IF-guarded flows are all invisible to this baseline).
#include <functional>

#include "panorama/deptest/deptest.h"
#include "panorama/obs/trace.h"

namespace panorama {

namespace {

struct Ref {
  Region region;
  bool isWrite;
};

}  // namespace

ConventionalResult ConventionalAnalyzer::classifyLoop(const Stmt& doStmt,
                                                      const Procedure& proc) const {
  ConventionalResult result;
  obs::Span span("deptest.loop", proc.name + " DO " + doStmt.doVar);
  const ProcSymbols& sym = sema_.of(proc);

  auto idx = sym.scalarId(doStmt.doVar);
  SymExpr lo = lowerInt(*doStmt.lo, sym);
  SymExpr up = lowerInt(*doStmt.hi, sym);
  if (!idx || lo.isPoisoned() || up.isPoisoned()) {
    result.sawUnanalyzable = true;
    return result;
  }
  if (doStmt.step && !(lowerInt(*doStmt.step, sym) == SymExpr::constant(1)))
    result.sawUnanalyzable = true;  // stay simple: unit steps only

  std::vector<Ref> refs;
  std::set<std::string> assignedScalars;
  std::set<std::string> exposedScalars;
  std::set<std::string> definite;

  std::function<void(const Expr&)> collectReads = [&](const Expr& e) {
    for (const ExprPtr& a : e.args) collectReads(*a);
    if (e.kind == Expr::Kind::ArrayRef) {
      std::vector<SymRange> dims;
      for (const ExprPtr& s : e.args) {
        SymExpr v = lowerInt(*s, sym);
        dims.push_back(v.isPoisoned() ? SymRange::unknown() : SymRange::point(std::move(v)));
      }
      refs.push_back({Region(*sym.arrayId(e.name), dims), false});
    }
    if (e.kind == Expr::Kind::VarRef && sym.isScalar(e.name) && !definite.count(e.name) &&
        e.name != doStmt.doVar)
      exposedScalars.insert(e.name);
  };

  std::function<void(const Stmt&, bool)> walk = [&](const Stmt& s, bool topLevel) {
    switch (s.kind) {
      case Stmt::Kind::Assign:
        collectReads(*s.rhs);
        if (s.lhs->kind == Expr::Kind::ArrayRef) {
          std::vector<SymRange> dims;
          for (const ExprPtr& sub : s.lhs->args) {
            collectReads(*sub);
            SymExpr v = lowerInt(*sub, sym);
            dims.push_back(v.isPoisoned() ? SymRange::unknown() : SymRange::point(std::move(v)));
          }
          refs.push_back({Region(*sym.arrayId(s.lhs->name), dims), true});
        } else if (s.lhs->kind == Expr::Kind::VarRef && sym.isScalar(s.lhs->name)) {
          assignedScalars.insert(s.lhs->name);
          if (topLevel) definite.insert(s.lhs->name);
        }
        break;
      case Stmt::Kind::If:
        collectReads(*s.cond);
        for (const StmtPtr& c : s.thenBody) walk(*c, false);
        for (const StmtPtr& c : s.elseBody) walk(*c, false);
        break;
      case Stmt::Kind::Do:
        collectReads(*s.lo);
        collectReads(*s.hi);
        if (s.step) collectReads(*s.step);
        assignedScalars.insert(s.doVar);
        if (topLevel) definite.insert(s.doVar);
        for (const StmtPtr& c : s.body) walk(*c, false);
        break;
      case Stmt::Kind::Call:
        result.sawCall = true;
        for (const ExprPtr& a : s.args) collectReads(*a);
        break;
      case Stmt::Kind::Goto:
        result.sawUnanalyzable = true;
        break;
      default:
        break;
    }
  };
  for (const StmtPtr& s : doStmt.body) walk(*s, true);

  bool allIndependent = true;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (!refs[i].isWrite) continue;
    for (std::size_t j = 0; j < refs.size(); ++j) {
      if (i == j && refs.size() > 1) continue;
      if (!refs[i].isWrite && !refs[j].isWrite) continue;
      ++result.pairsTested;
      Truth indep = refsIndependent(refs[i].region, refs[j].region, *idx, lo, up);
      if (indep == Truth::True)
        ++result.pairsIndependent;
      else
        allIndependent = false;
    }
  }

  bool scalarsOk = true;
  for (const std::string& v : assignedScalars)
    if (v != doStmt.doVar && exposedScalars.count(v)) scalarsOk = false;

  result.parallel = allIndependent && scalarsOk && !result.sawCall && !result.sawUnanalyzable;
  return result;
}

std::vector<std::pair<const Stmt*, ConventionalResult>> ConventionalAnalyzer::classifyProgram()
    const {
  std::vector<std::pair<const Stmt*, ConventionalResult>> out;
  for (const Procedure& proc : program_.procedures)
    for (const Stmt* loop : collectDoLoops(proc.body))
      out.emplace_back(loop, classifyLoop(*loop, proc));
  return out;
}

}  // namespace panorama
