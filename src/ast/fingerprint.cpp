#include "panorama/ast/fingerprint.h"

#include <algorithm>
#include <set>

namespace panorama {

namespace {

/// FNV-1a accumulator. Every field is framed by a tag byte so that adjacent
/// variable-length pieces (names, child lists) can never alias: "ab"+"c"
/// hashes differently from "a"+"bc".
class Hasher {
 public:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  void u64(std::uint64_t v) {
    for (int k = 0; k < 8; ++k) byte(static_cast<std::uint8_t>(v >> (8 * k)));
  }
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) byte(static_cast<std::uint8_t>(c));
  }
  Fingerprint value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void hashExpr(Hasher& h, const Expr* e) {
  if (!e) {
    h.byte(0);
    return;
  }
  h.byte(1);
  h.byte(static_cast<std::uint8_t>(e->kind));
  switch (e->kind) {
    case Expr::Kind::IntLit:
      h.u64(static_cast<std::uint64_t>(e->intValue));
      break;
    case Expr::Kind::RealLit: {
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(e->realValue));
      __builtin_memcpy(&bits, &e->realValue, sizeof(bits));
      h.u64(bits);
      break;
    }
    case Expr::Kind::LogicalLit:
      h.byte(e->logicalValue ? 1 : 0);
      break;
    case Expr::Kind::VarRef:
    case Expr::Kind::ArrayRef:
    case Expr::Kind::Intrinsic:
      h.str(e->name);
      break;
    case Expr::Kind::Binary:
      h.byte(static_cast<std::uint8_t>(e->binOp));
      break;
    case Expr::Kind::Unary:
      h.byte(static_cast<std::uint8_t>(e->unOp));
      break;
  }
  h.u64(e->args.size());
  for (const ExprPtr& a : e->args) hashExpr(h, a.get());
}

void hashStmt(Hasher& h, const Stmt& s) {
  h.byte(static_cast<std::uint8_t>(s.kind));
  // Labels are GOTO targets — control flow, not formatting — so they count.
  h.u64(static_cast<std::uint64_t>(s.label));
  hashExpr(h, s.lhs.get());
  hashExpr(h, s.rhs.get());
  hashExpr(h, s.cond.get());
  h.str(s.doVar);
  hashExpr(h, s.lo.get());
  hashExpr(h, s.hi.get());
  hashExpr(h, s.step.get());
  h.u64(static_cast<std::uint64_t>(s.gotoLabel));
  h.str(s.callee);
  h.u64(s.args.size());
  for (const ExprPtr& a : s.args) hashExpr(h, a.get());
  h.u64(s.thenBody.size());
  for (const StmtPtr& c : s.thenBody) hashStmt(h, *c);
  h.u64(s.elseBody.size());
  for (const StmtPtr& c : s.elseBody) hashStmt(h, *c);
  h.u64(s.body.size());
  for (const StmtPtr& c : s.body) hashStmt(h, *c);
}

void hashFrame(Hasher& h, const Procedure& proc) {
  h.str(proc.name);
  h.byte(proc.isMain ? 1 : 0);
  h.u64(proc.params.size());
  for (const std::string& p : proc.params) h.str(p);
  h.u64(proc.decls.size());
  for (const VarDecl& d : proc.decls) {
    h.str(d.name);
    h.byte(static_cast<std::uint8_t>(d.type));
    h.u64(d.dims.size());
    for (const VarDecl::DimBound& b : d.dims) {
      hashExpr(h, b.lo.get());
      hashExpr(h, b.up.get());
    }
  }
  h.u64(proc.commons.size());
  for (const CommonBlock& blk : proc.commons) {
    h.str(blk.name);
    h.u64(blk.vars.size());
    for (const std::string& v : blk.vars) h.str(v);
  }
  h.u64(proc.paramConsts.size());
  for (const ParamConst& pc : proc.paramConsts) {
    h.str(pc.name);
    hashExpr(h, pc.value.get());
  }
}

void scanStmt(const Stmt& s, std::set<std::string>& doVars, std::set<std::string>& callees,
              std::uint32_t& loopCount) {
  if (s.kind == Stmt::Kind::Do) {
    doVars.insert(s.doVar);
    ++loopCount;
  }
  if (s.kind == Stmt::Kind::Call) callees.insert(s.callee);
  for (const StmtPtr& c : s.thenBody) scanStmt(*c, doVars, callees, loopCount);
  for (const StmtPtr& c : s.elseBody) scanStmt(*c, doVars, callees, loopCount);
  for (const StmtPtr& c : s.body) scanStmt(*c, doVars, callees, loopCount);
}

}  // namespace

Fingerprint fingerprintProcedure(const Procedure& proc) {
  return fingerprintProcedureDetail(proc).whole;
}

ProcFingerprintDetail fingerprintProcedureDetail(const Procedure& proc) {
  ProcFingerprintDetail out;

  // Per-item structural hashes plus the scan products (DO index names for
  // the frame, CALL targets for the epoch keys).
  const std::size_t n = proc.body.size();
  std::set<std::string> doVars;
  out.items.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    ItemFingerprint& item = out.items[k];
    Hasher h;
    hashStmt(h, *proc.body[k]);
    item.hash = h.value();
    if (k > 0) item.precedingHash = out.items[k - 1].hash;
    std::set<std::string> callees;
    scanStmt(*proc.body[k], doVars, callees, item.loopCount);
    item.callees.assign(callees.begin(), callees.end());
  }

  // The frame covers everything a lowering can read besides statements: the
  // declaration context plus the procedure's DO index set (the T1-off
  // ablation treats index variables specially, so the set is verdict input).
  Hasher h;
  hashFrame(h, proc);
  h.u64(doVars.size());
  for (const std::string& v : doVars) h.str(v);
  out.frame = h.value();

  // The whole procedure: its frame and its items in order.
  Hasher w;
  w.u64(out.frame);
  w.u64(n);
  for (const ItemFingerprint& item : out.items) w.u64(item.hash);
  out.whole = w.value();
  return out;
}

}  // namespace panorama
