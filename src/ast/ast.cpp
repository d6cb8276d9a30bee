#include "panorama/ast/ast.h"

#include <algorithm>
#include <functional>

namespace panorama {

ExprPtr Expr::intLit(std::int64_t v, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::IntLit;
  e->intValue = v;
  e->loc = loc;
  return e;
}

ExprPtr Expr::realLit(double v, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::RealLit;
  e->realValue = v;
  e->loc = loc;
  return e;
}

ExprPtr Expr::logicalLit(bool v, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::LogicalLit;
  e->logicalValue = v;
  e->loc = loc;
  return e;
}

ExprPtr Expr::var(std::string name, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::VarRef;
  e->name = std::move(name);
  e->loc = loc;
  return e;
}

ExprPtr Expr::arrayRef(std::string name, std::vector<ExprPtr> subs, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::ArrayRef;
  e->name = std::move(name);
  e->args = std::move(subs);
  e->loc = loc;
  return e;
}

ExprPtr Expr::intrinsic(std::string name, std::vector<ExprPtr> args, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::Intrinsic;
  e->name = std::move(name);
  e->args = std::move(args);
  e->loc = loc;
  return e;
}

ExprPtr Expr::binary(BinOp op, ExprPtr l, ExprPtr r, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::Binary;
  e->binOp = op;
  e->args.push_back(std::move(l));
  e->args.push_back(std::move(r));
  e->loc = loc;
  return e;
}

ExprPtr Expr::unary(UnOp op, ExprPtr operand, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::Unary;
  e->unOp = op;
  e->args.push_back(std::move(operand));
  e->loc = loc;
  return e;
}

ExprPtr Expr::clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->loc = loc;
  e->intValue = intValue;
  e->realValue = realValue;
  e->logicalValue = logicalValue;
  e->name = name;
  e->binOp = binOp;
  e->unOp = unOp;
  e->args.reserve(args.size());
  for (const ExprPtr& a : args) e->args.push_back(a->clone());
  return e;
}

const VarDecl* Procedure::findDecl(std::string_view name) const {
  auto it = std::find_if(decls.begin(), decls.end(),
                         [&](const VarDecl& d) { return d.name == name; });
  return it == decls.end() ? nullptr : &*it;
}

const Procedure* Program::findProcedure(std::string_view name) const {
  auto it = std::find_if(procedures.begin(), procedures.end(),
                         [&](const Procedure& p) { return p.name == name; });
  return it == procedures.end() ? nullptr : &*it;
}

std::vector<const Stmt*> collectDoLoops(std::span<const StmtPtr> stmts) {
  std::vector<const Stmt*> out;
  std::function<void(std::span<const StmtPtr>)> walk = [&](std::span<const StmtPtr> list) {
    for (const StmtPtr& s : list) {
      if (s->kind == Stmt::Kind::Do) out.push_back(s.get());
      walk(s->thenBody);
      walk(s->elseBody);
      walk(s->body);
    }
  };
  walk(stmts);
  return out;
}

}  // namespace panorama
