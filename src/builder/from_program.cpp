// rebuild(): replays an existing pre-sema AST through a fresh ProgramBuilder.
// This is the parse → IR → rebuild round-trip behind the corpus round-trip
// test, the ingestion bench and the fuzz tests: the result must be
// structurally identical to the input (same `fingerprintProcedure` hash),
// which makes the replay a continuous proof that the fluent API spans
// everything the F77 parser can produce.
#include "panorama/builder/builder.h"

namespace panorama::builder {
namespace {

Val wrapClone(const ExprPtr& e) { return Val::wrap(e ? e->clone() : nullptr); }

void replayBody(ProcedureBuilder& pb, const std::vector<StmtPtr>& body) {
  for (const StmtPtr& sp : body) {
    const Stmt& s = *sp;
    pb.at(static_cast<int>(s.loc.line), static_cast<int>(s.loc.column));
    if (s.label != 0) pb.labelNext(s.label);
    switch (s.kind) {
      case Stmt::Kind::Assign:
        if (s.lhs->kind == Expr::Kind::VarRef) {
          pb.assign(s.lhs->name, wrapClone(s.rhs));
        } else {
          std::vector<Val> subs;
          subs.reserve(s.lhs->args.size());
          for (const ExprPtr& a : s.lhs->args) subs.push_back(wrapClone(a));
          pb.store(s.lhs->name, std::move(subs), wrapClone(s.rhs));
        }
        break;
      case Stmt::Kind::If:
        pb.beginGuard(wrapClone(s.cond));
        replayBody(pb, s.thenBody);
        if (!s.elseBody.empty()) {
          pb.beginElse();
          replayBody(pb, s.elseBody);
        }
        pb.endGuard();
        break;
      case Stmt::Kind::Do:
        if (s.step)
          pb.beginLoop(s.doVar, wrapClone(s.lo), wrapClone(s.hi), wrapClone(s.step));
        else
          pb.beginLoop(s.doVar, wrapClone(s.lo), wrapClone(s.hi));
        replayBody(pb, s.body);
        pb.endLoop();
        break;
      case Stmt::Kind::Goto:
        pb.jump(s.gotoLabel);
        break;
      case Stmt::Kind::Continue:
        // The label (if any) was routed through labelNext() above, so
        // makeStmt() attaches it exactly like a parsed `N continue`.
        pb.cont(0);
        break;
      case Stmt::Kind::Call: {
        std::vector<Val> args;
        args.reserve(s.args.size());
        for (const ExprPtr& a : s.args) args.push_back(wrapClone(a));
        pb.call(s.callee, std::move(args));
        break;
      }
      case Stmt::Kind::Return:
        pb.ret();
        break;
      case Stmt::Kind::Stop:
        pb.stop();
        break;
    }
  }
}

VarDecl cloneDecl(const VarDecl& d) {
  VarDecl c;
  c.name = d.name;
  c.type = d.type;
  c.loc = d.loc;
  c.dims.reserve(d.dims.size());
  for (const VarDecl::DimBound& b : d.dims) {
    VarDecl::DimBound nb;
    if (b.lo) nb.lo = b.lo->clone();
    if (b.up) nb.up = b.up->clone();
    c.dims.push_back(std::move(nb));
  }
  return c;
}

}  // namespace

BuildResult rebuild(const Program& program) {
  ProgramBuilder b;
  for (const Procedure& p : program.procedures) {
    ProcedureBuilder& pb = p.isMain ? b.mainProgram(p.name) : b.procedure(p.name);
    pb.at(static_cast<int>(p.loc.line), static_cast<int>(p.loc.column));
    for (const std::string& formal : p.params) pb.param(formal);
    for (const VarDecl& d : p.decls) pb.declare(cloneDecl(d));
    for (const CommonBlock& blk : p.commons) pb.common(blk.name, blk.vars);
    for (const ParamConst& pc : p.paramConsts) pb.constant(pc.name, wrapClone(pc.value));
    replayBody(pb, p.body);
  }
  return b.build();
}

}  // namespace panorama::builder
