// ProgramBuilder: validation + assembly of the frontend-neutral IR into the
// shared pre-sema AST. All misuse is reported as diagnostics at build();
// nothing here aborts (the builder is the ingestion surface for untrusted
// programmatic clients — a malformed submission must fail like a syntax
// error, not like a bug).
#include "panorama/builder/builder.h"

#include <algorithm>
#include <map>
#include <set>

#include "panorama/ast/sema.h"
#include "panorama/frontend/lexer.h"

namespace panorama::builder {

// --------------------------------------------------------------- Val DSL

Val sym(std::string name) { return Val::wrap(Expr::var(std::move(name))); }
Val cst(std::int64_t v) { return Val::wrap(Expr::intLit(v)); }
Val rcst(double v) { return Val::wrap(Expr::realLit(v)); }
Val lcst(bool v) { return Val::wrap(Expr::logicalLit(v)); }

Val elem(std::string array, std::vector<Val> subs) {
  std::vector<ExprPtr> args;
  args.reserve(subs.size());
  for (const Val& s : subs) args.push_back(s.take());
  return Val::wrap(Expr::arrayRef(std::move(array), std::move(args)));
}

Val fn(std::string name, std::vector<Val> args) {
  // Emitted as an ArrayRef, exactly like the parser: sema reclassifies
  // recognized intrinsic names in place (keeping fingerprints comparable
  // across the two frontends).
  return elem(std::move(name), std::move(args));
}

namespace {
Val bin(BinOp op, Val l, Val r) { return Val::wrap(Expr::binary(op, l.take(), r.take())); }
}  // namespace

Val operator+(Val l, Val r) { return bin(BinOp::Add, std::move(l), std::move(r)); }
Val operator-(Val l, Val r) { return bin(BinOp::Sub, std::move(l), std::move(r)); }
Val operator*(Val l, Val r) { return bin(BinOp::Mul, std::move(l), std::move(r)); }
Val operator/(Val l, Val r) { return bin(BinOp::Div, std::move(l), std::move(r)); }
Val pow(Val l, Val r) { return bin(BinOp::Pow, std::move(l), std::move(r)); }
Val operator-(Val x) { return Val::wrap(Expr::unary(UnOp::Neg, x.take())); }
Val operator==(Val l, Val r) { return bin(BinOp::Eq, std::move(l), std::move(r)); }
Val operator!=(Val l, Val r) { return bin(BinOp::Ne, std::move(l), std::move(r)); }
Val operator<(Val l, Val r) { return bin(BinOp::Lt, std::move(l), std::move(r)); }
Val operator<=(Val l, Val r) { return bin(BinOp::Le, std::move(l), std::move(r)); }
Val operator>(Val l, Val r) { return bin(BinOp::Gt, std::move(l), std::move(r)); }
Val operator>=(Val l, Val r) { return bin(BinOp::Ge, std::move(l), std::move(r)); }
Val operator&&(Val l, Val r) { return bin(BinOp::And, std::move(l), std::move(r)); }
Val operator||(Val l, Val r) { return bin(BinOp::Or, std::move(l), std::move(r)); }
Val operator!(Val x) { return Val::wrap(Expr::unary(UnOp::Not, x.take())); }

// --------------------------------------------------------------- NodeRef

NodeRef& NodeRef::assign(std::string scalar, Val value) {
  if (valid()) {
    StmtPtr s = pb_->makeStmt(Stmt::Kind::Assign);
    s->lhs = Expr::var(std::move(scalar), s->loc);
    s->rhs = value.take();
    pb_->appendStmt(id_, std::move(s));
  }
  return *this;
}

NodeRef& NodeRef::store(std::string array, std::vector<Val> subs, Val value) {
  if (valid()) {
    StmtPtr s = pb_->makeStmt(Stmt::Kind::Assign);
    std::vector<ExprPtr> args;
    args.reserve(subs.size());
    for (const Val& v : subs) args.push_back(v.take());
    s->lhs = Expr::arrayRef(std::move(array), std::move(args), s->loc);
    s->rhs = value.take();
    pb_->appendStmt(id_, std::move(s));
  }
  return *this;
}

NodeRef& NodeRef::call(std::string callee, std::vector<Val> args) {
  if (valid()) {
    StmtPtr s = pb_->makeStmt(Stmt::Kind::Call);
    s->callee = std::move(callee);
    for (const Val& a : args) s->args.push_back(a.take());
    pb_->appendStmt(id_, std::move(s));
  }
  return *this;
}

NodeRef& NodeRef::ret() {
  if (valid()) pb_->appendStmt(id_, pb_->makeStmt(Stmt::Kind::Return));
  return *this;
}

NodeRef& NodeRef::stop() {
  if (valid()) pb_->appendStmt(id_, pb_->makeStmt(Stmt::Kind::Stop));
  return *this;
}

NodeRef& NodeRef::cont(int label) {
  if (valid()) {
    StmtPtr s = pb_->makeStmt(Stmt::Kind::Continue);
    if (label != 0) s->label = label;
    if (label != 0) pb_->stmtLabels_.push_back(label);
    pb_->appendStmt(id_, std::move(s));
  }
  return *this;
}

NodeRef& NodeRef::jump(int label) {
  if (valid()) {
    StmtPtr s = pb_->makeStmt(Stmt::Kind::Goto);
    s->gotoLabel = label;
    pb_->gotoTargets_.push_back({label, s->loc});
    pb_->appendStmt(id_, std::move(s));
  }
  return *this;
}

NodeRef NodeRef::operator>>(NodeRef next) const {
  if (valid() && next.valid()) {
    if (pb_ != next.pb_) {
      pb_->diag("edge from '" + std::string(name()) + "' to '" + std::string(next.name()) +
                "' links nodes of different procedures");
    } else {
      pb_->addEdge(id_, next.id_);
    }
  }
  return next;
}

std::string_view NodeRef::name() const {
  if (!valid()) return "<invalid>";
  return pb_->node(id_).name;
}

// ----------------------------------------------------- ProcedureBuilder

ProcedureBuilder& ProcedureBuilder::param(std::string name) {
  if (std::find(params_.begin(), params_.end(), name) != params_.end())
    diag("duplicate formal parameter '" + name + "'");
  else
    params_.push_back(std::move(name));
  return *this;
}

ProcedureBuilder& ProcedureBuilder::scalar(std::string name, BaseType type) {
  VarDecl d;
  d.name = std::move(name);
  d.type = type;
  d.loc = loc_;
  decls_.push_back(std::move(d));
  return *this;
}

ProcedureBuilder& ProcedureBuilder::array(std::string name, std::vector<Val> upperBounds,
                                          BaseType type) {
  VarDecl d;
  d.name = std::move(name);
  d.type = type;
  d.loc = loc_;
  if (upperBounds.empty()) diag("array '" + d.name + "' declared with no dimensions");
  for (const Val& up : upperBounds) {
    VarDecl::DimBound b;
    b.up = up.take();
    d.dims.push_back(std::move(b));
  }
  decls_.push_back(std::move(d));
  return *this;
}

ProcedureBuilder& ProcedureBuilder::declare(VarDecl decl) {
  if (decl.loc == SourceLoc{}) decl.loc = loc_;
  decls_.push_back(std::move(decl));
  return *this;
}

ProcedureBuilder& ProcedureBuilder::constant(std::string name, Val value) {
  ParamConst pc;
  pc.name = std::move(name);
  pc.value = value.take();
  consts_.push_back(std::move(pc));
  return *this;
}

ProcedureBuilder& ProcedureBuilder::common(std::string block, std::vector<std::string> vars) {
  CommonBlock blk;
  blk.name = std::move(block);
  blk.vars = std::move(vars);
  commons_.push_back(std::move(blk));
  return *this;
}

ProcedureBuilder& ProcedureBuilder::at(int line, int column) {
  loc_ = SourceLoc{static_cast<std::uint32_t>(line < 0 ? 0 : line),
                   static_cast<std::uint32_t>(column < 0 ? 0 : column)};
  if (!procLocSet_) {
    procLoc_ = loc_;
    procLocSet_ = true;
  }
  return *this;
}

ProcedureBuilder& ProcedureBuilder::labelNext(int label) {
  nextLabel_ = label;
  return *this;
}

int ProcedureBuilder::newNode(Node::Kind kind, std::string name) {
  Node n;
  n.kind = kind;
  n.name = std::move(name);
  n.parent = currentRegion();
  n.loc = loc_;
  if (n.parent >= 0 && node(n.parent).kind == Node::Kind::Guard)
    n.inElse = node(n.parent).elseStarted;
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

NodeRef ProcedureBuilder::block(std::string name) {
  if (name.empty()) name = "bb" + std::to_string(autoBlockId_++);
  int id = newNode(Node::Kind::Block, std::move(name));
  currentBlock_ = id;
  return NodeRef(this, id);
}

int ProcedureBuilder::emissionBlock() {
  // A fresh block is needed when none is live in the current region — the
  // region just opened, or a sub-region was closed since the last emission
  // (statements after endLoop() must sequence after the loop).
  if (currentBlock_ >= 0 && node(currentBlock_).parent == currentRegion() &&
      node(currentBlock_).kind == Node::Kind::Block) {
    const Node& b = node(currentBlock_);
    const bool branchMatches =
        b.parent < 0 || node(b.parent).kind != Node::Kind::Guard ||
        b.inElse == node(b.parent).elseStarted;
    if (branchMatches && currentBlock_ == static_cast<int>(nodes_.size()) - 1) return currentBlock_;
    // The current block is stale only if something (a region, another
    // block) was created after it; otherwise keep appending.
    if (branchMatches) {
      bool somethingAfter = false;
      for (std::size_t k = static_cast<std::size_t>(currentBlock_) + 1; k < nodes_.size(); ++k)
        if (nodes_[k].parent == node(currentBlock_).parent) somethingAfter = true;
      if (!somethingAfter) return currentBlock_;
    }
  }
  block();
  return currentBlock_;
}

StmtPtr ProcedureBuilder::makeStmt(Stmt::Kind kind) {
  auto s = std::make_unique<Stmt>();
  s->kind = kind;
  s->loc = loc_;
  if (nextLabel_ != 0) {
    s->label = nextLabel_;
    stmtLabels_.push_back(nextLabel_);
    nextLabel_ = 0;
  }
  return s;
}

void ProcedureBuilder::appendStmt(int blockId, StmtPtr stmt) {
  Node& n = node(blockId);
  if (n.kind != Node::Kind::Block) {
    diag("cannot emit a statement into region node '" + n.name + "'; create a block inside it");
    return;
  }
  n.stmts.push_back(std::move(stmt));
}

NodeRef ProcedureBuilder::beginLoop(std::string var, Val lo, Val hi) {
  int id = newNode(Node::Kind::Loop, "loop." + var + "#" + std::to_string(nodes_.size()));
  Node& n = node(id);
  n.doVar = var;
  n.lo = lo.take();
  n.hi = hi.take();
  n.closed = false;
  if (nextLabel_ != 0) {
    n.label = nextLabel_;
    stmtLabels_.push_back(nextLabel_);
    nextLabel_ = 0;
  }
  loopVars_.push_back(std::move(var));
  regionStack_.push_back(id);
  currentBlock_ = -1;
  return NodeRef(this, id);
}

NodeRef ProcedureBuilder::beginLoop(std::string var, Val lo, Val hi, Val step) {
  NodeRef r = beginLoop(std::move(var), std::move(lo), std::move(hi));
  if (r.valid()) node(r.id_).step = step.take();
  return r;
}

ProcedureBuilder& ProcedureBuilder::endLoop() {
  if (regionStack_.empty() || node(regionStack_.back()).kind != Node::Kind::Loop) {
    diag("endLoop() without an open loop region");
    return *this;
  }
  node(regionStack_.back()).closed = true;
  regionStack_.pop_back();
  currentBlock_ = -1;
  return *this;
}

NodeRef ProcedureBuilder::beginGuard(Val cond) {
  int id = newNode(Node::Kind::Guard, "guard#" + std::to_string(nodes_.size()));
  Node& n = node(id);
  n.cond = cond.take();
  n.closed = false;
  if (nextLabel_ != 0) {
    n.label = nextLabel_;
    stmtLabels_.push_back(nextLabel_);
    nextLabel_ = 0;
  }
  regionStack_.push_back(id);
  currentBlock_ = -1;
  return NodeRef(this, id);
}

ProcedureBuilder& ProcedureBuilder::beginElse() {
  if (regionStack_.empty() || node(regionStack_.back()).kind != Node::Kind::Guard) {
    diag("beginElse() without an open guard region");
    return *this;
  }
  Node& g = node(regionStack_.back());
  if (g.elseStarted) diag("guard '" + g.name + "' already has an else branch");
  g.elseStarted = true;
  currentBlock_ = -1;
  return *this;
}

ProcedureBuilder& ProcedureBuilder::endGuard() {
  if (regionStack_.empty() || node(regionStack_.back()).kind != Node::Kind::Guard) {
    diag("endGuard() without an open guard region");
    return *this;
  }
  node(regionStack_.back()).closed = true;
  regionStack_.pop_back();
  currentBlock_ = -1;
  return *this;
}

ProcedureBuilder& ProcedureBuilder::assign(std::string scalar, Val value) {
  NodeRef(this, emissionBlock()).assign(std::move(scalar), std::move(value));
  return *this;
}

ProcedureBuilder& ProcedureBuilder::store(std::string array, std::vector<Val> subs, Val value) {
  NodeRef(this, emissionBlock()).store(std::move(array), std::move(subs), std::move(value));
  return *this;
}

ProcedureBuilder& ProcedureBuilder::call(std::string callee, std::vector<Val> args) {
  NodeRef(this, emissionBlock()).call(std::move(callee), std::move(args));
  return *this;
}

ProcedureBuilder& ProcedureBuilder::ret() {
  NodeRef(this, emissionBlock()).ret();
  return *this;
}

ProcedureBuilder& ProcedureBuilder::stop() {
  NodeRef(this, emissionBlock()).stop();
  return *this;
}

ProcedureBuilder& ProcedureBuilder::cont(int label) {
  NodeRef(this, emissionBlock()).cont(label);
  return *this;
}

ProcedureBuilder& ProcedureBuilder::jump(int label) {
  NodeRef(this, emissionBlock()).jump(label);
  return *this;
}

void ProcedureBuilder::addEdge(int from, int to) {
  Node& a = node(from);
  Node& b = node(to);
  if (a.parent != b.parent || a.inElse != b.inElse) {
    diag("edge '" + a.name + "' >> '" + b.name + "' crosses region boundaries");
    return;
  }
  a.succs.push_back(to);
  b.preds.push_back(from);
}

// ----------------------------------------------------------- validation

void ProcedureBuilder::checkIdentifier(const std::string& name, SourceLoc loc,
                                       DiagnosticEngine& diags) const {
  if (!isIdentifier(name))
    diags.error(loc, "procedure '" + name_ + "': '" + name + "' is not an identifier");
}

void ProcedureBuilder::checkIdentifiers(const Expr& e, DiagnosticEngine& diags) const {
  if (e.kind == Expr::Kind::VarRef || e.kind == Expr::Kind::ArrayRef ||
      e.kind == Expr::Kind::Intrinsic)
    checkIdentifier(e.name, e.loc, diags);
  for (const ExprPtr& a : e.args)
    if (a) checkIdentifiers(*a, diags);
}

void ProcedureBuilder::checkIdentifiers(const Stmt& s, DiagnosticEngine& diags) const {
  if (s.kind == Stmt::Kind::Do) checkIdentifier(s.doVar, s.loc, diags);
  if (s.kind == Stmt::Kind::Call) checkIdentifier(s.callee, s.loc, diags);
  for (const Expr* e : {s.lhs.get(), s.rhs.get(), s.cond.get(), s.lo.get(), s.hi.get(),
                        s.step.get()})
    if (e) checkIdentifiers(*e, diags);
  for (const ExprPtr& a : s.args)
    if (a) checkIdentifiers(*a, diags);
  for (const std::vector<StmtPtr>* body : {&s.thenBody, &s.elseBody, &s.body})
    for (const StmtPtr& c : *body) checkIdentifiers(*c, diags);
}

bool ProcedureBuilder::isDeclared(const std::string& name) const {
  for (const VarDecl& d : decls_)
    if (d.name == name) return true;
  for (const ParamConst& pc : consts_)
    if (pc.name == name) return true;
  if (std::find(params_.begin(), params_.end(), name) != params_.end()) return true;
  if (std::find(loopVars_.begin(), loopVars_.end(), name) != loopVars_.end()) return true;
  if (std::find(definedScalars_.begin(), definedScalars_.end(), name) != definedScalars_.end())
    return true;
  return false;
}

void ProcedureBuilder::collectDefinedScalars(const Stmt& s) {
  switch (s.kind) {
    case Stmt::Kind::Assign:
      if (s.lhs->kind == Expr::Kind::VarRef) definedScalars_.push_back(s.lhs->name);
      break;
    case Stmt::Kind::Call:
      // A scalar passed by reference may be defined by the callee; Fortran
      // implicit typing makes it a known symbol either way.
      for (const ExprPtr& a : s.args)
        if (a->kind == Expr::Kind::VarRef) definedScalars_.push_back(a->name);
      break;
    case Stmt::Kind::If:
      for (const StmtPtr& c : s.thenBody) collectDefinedScalars(*c);
      for (const StmtPtr& c : s.elseBody) collectDefinedScalars(*c);
      break;
    case Stmt::Kind::Do:
      for (const StmtPtr& c : s.body) collectDefinedScalars(*c);
      break;
    default:
      break;
  }
}

void ProcedureBuilder::validateExpr(const Expr& e, bool analysisPosition,
                                    DiagnosticEngine& diags) {
  switch (e.kind) {
    case Expr::Kind::VarRef:
      // Analysis-bearing positions (subscripts, loop bounds) demand declared
      // symbols — an undeclared name there silently becomes an opaque value
      // and poisons the region algebra, which is exactly the mistake a
      // programmatic client wants surfaced. Elsewhere Fortran implicit
      // typing applies, matching the parser frontend.
      if (analysisPosition && !isDeclared(e.name))
        diags.error(e.loc, "procedure '" + name_ + "': subscript or loop bound references " +
                               "undeclared symbol '" + e.name + "'");
      return;
    case Expr::Kind::ArrayRef:
    case Expr::Kind::Intrinsic: {
      const VarDecl* d = nullptr;
      for (const VarDecl& vd : decls_)
        if (vd.name == e.name) d = &vd;
      if (d && d->isArray()) {
        if (d->dims.size() != e.args.size())
          diags.error(e.loc, "procedure '" + name_ + "': array '" + e.name + "' expects " +
                                 std::to_string(d->dims.size()) + " subscript(s), got " +
                                 std::to_string(e.args.size()));
        for (const ExprPtr& a : e.args) validateExpr(*a, /*analysisPosition=*/true, diags);
        return;
      }
      if (e.kind == Expr::Kind::Intrinsic || isIntrinsicName(e.name)) {
        for (const ExprPtr& a : e.args) validateExpr(*a, analysisPosition, diags);
        return;
      }
      diags.error(e.loc, "procedure '" + name_ + "': '" + e.name +
                             "' is subscripted but is neither a declared array nor an intrinsic");
      return;
    }
    default:
      for (const ExprPtr& a : e.args) validateExpr(*a, analysisPosition, diags);
      return;
  }
}

void ProcedureBuilder::validateStmt(const Stmt& s, DiagnosticEngine& diags) {
  auto validateBody = [&](const std::vector<StmtPtr>& body) {
    for (const StmtPtr& c : body) validateStmt(*c, diags);
  };
  switch (s.kind) {
    case Stmt::Kind::Assign: {
      const Expr& lhs = *s.lhs;
      if (lhs.kind == Expr::Kind::VarRef) {
        for (const VarDecl& d : decls_)
          if (d.name == lhs.name && d.isArray())
            diags.error(lhs.loc, "procedure '" + name_ + "': assignment to array '" + lhs.name +
                                     "' without subscripts; use store()");
        for (const ParamConst& pc : consts_)
          if (pc.name == lhs.name)
            diags.error(lhs.loc,
                        "procedure '" + name_ + "': assignment to PARAMETER '" + lhs.name + "'");
      } else {
        validateExpr(lhs, /*analysisPosition=*/false, diags);
      }
      validateExpr(*s.rhs, /*analysisPosition=*/false, diags);
      break;
    }
    case Stmt::Kind::If:
      validateExpr(*s.cond, /*analysisPosition=*/false, diags);
      validateBody(s.thenBody);
      validateBody(s.elseBody);
      break;
    case Stmt::Kind::Do: {
      for (const VarDecl& d : decls_)
        if (d.name == s.doVar && d.isArray())
          diags.error(s.loc,
                      "procedure '" + name_ + "': loop variable '" + s.doVar + "' is an array");
      if (s.lo) validateExpr(*s.lo, /*analysisPosition=*/true, diags);
      if (s.hi) validateExpr(*s.hi, /*analysisPosition=*/true, diags);
      if (s.step) validateExpr(*s.step, /*analysisPosition=*/true, diags);
      validateBody(s.body);
      break;
    }
    case Stmt::Kind::Call:
      for (const ExprPtr& a : s.args) validateExpr(*a, /*analysisPosition=*/false, diags);
      break;
    default:
      break;
  }
}

// ------------------------------------------------------------- assembly

bool ProcedureBuilder::orderRegion(const std::vector<int>& members, std::vector<int>& ordered,
                                   DiagnosticEngine& diags) {
  bool anyEdge = false;
  for (int id : members)
    if (!node(id).succs.empty()) anyEdge = true;
  if (!anyEdge) {
    ordered = members;  // creation order
    return true;
  }

  bool ok = true;
  for (int id : members) {
    const Node& n = node(id);
    if (n.succs.size() > 1) {
      diags.error(n.loc, "procedure '" + name_ + "': node '" + n.name +
                             "' has multiple successors; branch with a guard region instead");
      ok = false;
    }
    if (n.preds.size() > 1) {
      diags.error(n.loc, "procedure '" + name_ + "': node '" + n.name +
                             "' has multiple predecessors in its region's edge chain");
      ok = false;
    }
    if (n.succs.empty() && n.preds.empty()) {
      diags.error(n.loc, "procedure '" + name_ + "': node '" + n.name +
                             "' is not linked into its region's edge chain");
      ok = false;
    }
  }
  if (!ok) return false;

  std::vector<int> heads;
  for (int id : members)
    if (node(id).preds.empty()) heads.push_back(id);
  if (heads.empty()) {
    diags.error(node(members.front()).loc,
                "procedure '" + name_ + "': cyclic edge chain through '" +
                    node(members.front()).name +
                    "' — cycles are not control flow here; use a loop region");
    return false;
  }
  if (heads.size() > 1) {
    diags.error(node(heads[1]).loc, "procedure '" + name_ + "': nodes '" + node(heads[0]).name +
                                        "' and '" + node(heads[1]).name +
                                        "' both start the region's edge chain");
    return false;
  }

  std::set<int> seen;
  int cur = heads[0];
  while (true) {
    ordered.push_back(cur);
    seen.insert(cur);
    if (node(cur).succs.empty()) break;
    int next = node(cur).succs[0];
    if (seen.count(next)) {
      diags.error(node(next).loc, "procedure '" + name_ + "': cyclic edge chain through '" +
                                      node(next).name +
                                      "' — cycles are not control flow here; use a loop region");
      return false;
    }
    cur = next;
  }
  if (seen.size() != members.size()) {
    for (int id : members) {
      if (seen.count(id)) continue;
      diags.error(node(id).loc, "procedure '" + name_ + "': cyclic edge chain through '" +
                                    node(id).name +
                                    "' — cycles are not control flow here; use a loop region");
      return false;
    }
  }
  return true;
}

bool ProcedureBuilder::emitRegion(int parent, bool inElse, std::vector<StmtPtr>& out,
                                  DiagnosticEngine& diags) {
  std::vector<int> members;
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    Node& n = nodes_[k];
    if (n.parent != parent) continue;
    if (parent >= 0 && node(parent).kind == Node::Kind::Guard && n.inElse != inElse) continue;
    members.push_back(static_cast<int>(k));
  }
  std::vector<int> ordered;
  if (!orderRegion(members, ordered, diags)) return false;

  bool ok = true;
  for (int id : ordered) {
    Node& n = node(id);
    switch (n.kind) {
      case Node::Kind::Block:
        for (StmtPtr& s : n.stmts) out.push_back(std::move(s));
        break;
      case Node::Kind::Loop: {
        auto s = std::make_unique<Stmt>();
        s->kind = Stmt::Kind::Do;
        s->loc = n.loc;
        s->label = n.label;
        s->doVar = n.doVar;
        s->lo = std::move(n.lo);
        s->hi = std::move(n.hi);
        s->step = std::move(n.step);
        ok = emitRegion(id, false, s->body, diags) && ok;
        out.push_back(std::move(s));
        break;
      }
      case Node::Kind::Guard: {
        auto s = std::make_unique<Stmt>();
        s->kind = Stmt::Kind::If;
        s->loc = n.loc;
        s->label = n.label;
        s->cond = std::move(n.cond);
        ok = emitRegion(id, false, s->thenBody, diags) && ok;
        ok = emitRegion(id, true, s->elseBody, diags) && ok;
        out.push_back(std::move(s));
        break;
      }
    }
  }
  return ok;
}

bool ProcedureBuilder::emit(Procedure& out, DiagnosticEngine& diags) {
  for (const Diagnostic& d : pending_) {
    if (d.kind == DiagKind::Error)
      diags.error(d.loc, "procedure '" + name_ + "': " + d.message);
    else
      diags.note(d.loc, d.message);
  }
  const std::size_t errorsBefore = diags.errorCount();

  for (int id : regionStack_) {
    const Node& n = node(id);
    diags.error(n.loc, "procedure '" + name_ + "': " +
                           (n.kind == Node::Kind::Loop ? std::string("loop '") : "guard '") +
                           n.name + "' was never closed (missing endLoop()/endGuard())");
  }

  std::set<std::string> blockNames;
  for (const Node& n : nodes_) {
    if (n.kind != Node::Kind::Block) continue;
    if (!blockNames.insert(n.name).second)
      diags.error(n.loc, "procedure '" + name_ + "': duplicate block name '" + n.name + "'");
  }

  checkIdentifier(name_, procLoc_, diags);
  for (const std::string& p : params_) checkIdentifier(p, procLoc_, diags);
  for (const VarDecl& d : decls_) {
    checkIdentifier(d.name, d.loc, diags);
    for (const VarDecl::DimBound& b : d.dims) {
      if (b.lo) checkIdentifiers(*b.lo, diags);
      if (b.up) checkIdentifiers(*b.up, diags);
    }
  }
  for (const ParamConst& pc : consts_) {
    checkIdentifier(pc.name, procLoc_, diags);
    if (pc.value) checkIdentifiers(*pc.value, diags);
  }
  for (const CommonBlock& blk : commons_) {
    if (!blk.name.empty()) checkIdentifier(blk.name, procLoc_, diags);  // empty: blank COMMON
    for (const std::string& v : blk.vars) checkIdentifier(v, procLoc_, diags);
  }

  std::set<std::string> declNames;
  for (const VarDecl& d : decls_)
    if (!declNames.insert(d.name).second)
      diags.error(d.loc, "procedure '" + name_ + "': duplicate declaration of '" + d.name + "'");
  for (const ParamConst& pc : consts_)
    if (declNames.count(pc.name))
      diags.error({}, "procedure '" + name_ + "': '" + pc.name +
                          "' declared both as a variable and a PARAMETER");
  if (isMain_ && !params_.empty())
    diags.error({}, "main program '" + name_ + "' cannot have formal parameters");
  for (const CommonBlock& blk : commons_)
    for (const std::string& v : blk.vars)
      if (!declNames.count(v))
        diags.error({}, "procedure '" + name_ + "': COMMON /" + blk.name + "/ lists undeclared '" +
                            v + "'");

  // Assemble the body even in the presence of symbol errors — the region
  // walk surfaces every structural problem in one build() call.
  std::vector<StmtPtr> body;
  if (regionStack_.empty()) emitRegion(-1, false, body, diags);

  for (const StmtPtr& s : body) checkIdentifiers(*s, diags);
  for (const StmtPtr& s : body) collectDefinedScalars(*s);
  for (const StmtPtr& s : body) validateStmt(*s, diags);

  std::set<int> labels(stmtLabels_.begin(), stmtLabels_.end());
  for (const auto& [label, loc] : gotoTargets_)
    if (!labels.count(label))
      diags.error(loc, "procedure '" + name_ + "': GOTO references undefined label " +
                           std::to_string(label));

  out.name = name_;
  out.isMain = isMain_;
  out.loc = procLoc_;
  out.params = std::move(params_);
  out.decls = std::move(decls_);
  out.commons = std::move(commons_);
  out.paramConsts = std::move(consts_);
  out.body = std::move(body);
  return diags.errorCount() == errorsBefore && !diags.hasErrors();
}

// ------------------------------------------------------- ProgramBuilder

ProcedureBuilder& ProgramBuilder::procedure(std::string name) {
  for (ProcedureBuilder& pb : procs_)
    if (pb.name() == name) return pb;
  procs_.push_back(ProcedureBuilder(this, std::move(name), /*isMain=*/false));
  return procs_.back();
}

ProcedureBuilder& ProgramBuilder::mainProgram(std::string name) {
  for (ProcedureBuilder& pb : procs_) {
    if (pb.name() == name) {
      pb.isMain_ = true;
      return pb;
    }
  }
  procs_.push_back(ProcedureBuilder(this, std::move(name), /*isMain=*/true));
  return procs_.back();
}

BuildResult ProgramBuilder::build() {
  BuildResult result;
  if (built_) {
    result.diags.error({}, "ProgramBuilder::build() called twice; the builder is single-shot");
    return result;
  }
  built_ = true;
  if (procs_.empty()) {
    result.diags.error({}, "program has no procedures");
    return result;
  }

  Program program;
  program.procedures.reserve(procs_.size());
  for (ProcedureBuilder& pb : procs_) {
    Procedure proc;
    pb.emit(proc, result.diags);
    program.procedures.push_back(std::move(proc));
  }
  if (!result.diags.hasErrors()) result.program = std::move(program);
  return result;
}

}  // namespace panorama::builder
