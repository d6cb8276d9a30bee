#include "panorama/codegen/annotate.h"

#include <map>

namespace panorama {

std::string directiveFor(const LoopAnalysis& la) {
  if (la.classification == LoopClass::Serial) return "";
  std::vector<std::string> privates;
  std::vector<std::string> lastPrivates;
  for (const ArrayPrivatization& ap : la.arrays) {
    if (!ap.privatizable) continue;
    (ap.needsCopyOut ? lastPrivates : privates).push_back(ap.name);
  }
  std::vector<std::string> sumReductions;
  std::vector<std::string> mulReductions;
  for (const ScalarInfo& si : la.scalars) {
    if (si.reduction)
      (si.reductionOp == '*' ? mulReductions : sumReductions).push_back(si.name);
    else if (si.privatizable)
      privates.push_back(si.name);
  }

  std::string out = "c$omp parallel do";
  auto clause = [&](const std::string& name, const std::vector<std::string>& vars) {
    if (vars.empty()) return;
    out += " " + name + "(";
    for (std::size_t k = 0; k < vars.size(); ++k) {
      if (k) out += ", ";
      out += vars[k];
    }
    out += ")";
  };
  clause("private", privates);
  clause("lastprivate", lastPrivates);
  auto reductionClause = [&](char op, const std::vector<std::string>& vars) {
    if (vars.empty()) return;
    out += std::string(" reduction(") + op + ": ";
    for (std::size_t k = 0; k < vars.size(); ++k) {
      if (k) out += ", ";
      out += vars[k];
    }
    out += ")";
  };
  reductionClause('+', sumReductions);
  reductionClause('*', mulReductions);
  return out;
}

std::string emitParallelSource(const Program& program, const std::vector<LoopAnalysis>& loops) {
  std::map<const Stmt*, DoAnnotation> directives;
  for (const LoopAnalysis& la : loops) {
    std::string d = directiveFor(la);
    if (!d.empty() && la.loop)
      directives.emplace(la.loop, DoAnnotation{std::move(d), "c$omp end parallel do"});
  }
  // Outermost only: a DO nested in an annotated one already runs inside its
  // parallel region.
  std::vector<const Stmt*> nested;
  for (const auto& [loop, directive] : directives)
    for (const Stmt* inner : collectDoLoops(loop->body)) nested.push_back(inner);
  for (const Stmt* inner : nested) directives.erase(inner);
  return toString(program, directives);
}

}  // namespace panorama
