// Frontend-neutral program-builder API: the programmatic ingestion layer of
// the analysis pipeline. A ProgramBuilder constructs the exact same pre-sema
// AST (`Program`) the Fortran-77 parser produces — declarations, blocks,
// `bb0 >> bb1` edge chains, loop/guard regions, assignments, array
// reads/writes and calls with symbolic subscripts — so any driver (a second
// parser, a generator, an analysis-as-a-service client) can reach the full
// GAR/HSG/privatization pipeline without going through Fortran text.
//
// Contract (DESIGN.md §4.7):
//   * build() validates its input — symbol names that are not identifiers
//     (the lexers' rule, isIdentifier; block names are exempt), undeclared
//     symbols in analysis-bearing positions (subscripts, loop bounds; a
//     scalar counts as declared when it is a formal, a PARAMETER, a loop
//     variable, or is defined by an assignment or call, mirroring Fortran
//     implicit typing), malformed or cyclic non-loop edges, duplicate block
//     names, unclosed regions, subscript-rank mismatches, dangling GOTO
//     labels — and reports every problem as a structured Diagnostic. It
//     never aborts: a failed build returns no Program and the full
//     diagnostics.
//   * A builder-constructed procedure that is structurally equal to a
//     parsed one yields the same `fingerprintProcedure` hash, so the
//     incremental session treats the two frontends as one (a builder
//     resubmit of an identical parsed program recomputes nothing).
//   * Emission order is creation order, refined by `>>` edges: within one
//     region the edge chain (when present) fixes the block order; without
//     edges, blocks and sub-regions emit in the order they were created.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "panorama/ast/ast.h"
#include "panorama/support/diagnostics.h"

namespace panorama::builder {

/// An expression value for the fluent API. Wraps an owned AST expression;
/// copies clone deeply, so one Val can be reused across statements.
class Val {
 public:
  Val(int v) : e_(Expr::intLit(v)) {}                 // NOLINT(google-explicit-constructor)
  Val(std::int64_t v) : e_(Expr::intLit(v)) {}        // NOLINT(google-explicit-constructor)
  Val(double v) : e_(Expr::realLit(v)) {}             // NOLINT(google-explicit-constructor)
  Val(const Val& o) : e_(o.e_ ? o.e_->clone() : nullptr) {}
  Val(Val&&) noexcept = default;
  Val& operator=(const Val& o) {
    e_ = o.e_ ? o.e_->clone() : nullptr;
    return *this;
  }
  Val& operator=(Val&&) noexcept = default;

  /// Adopts an already-built AST expression (the escape hatch replay-style
  /// frontends use).
  static Val wrap(ExprPtr e) {
    Val v;
    v.e_ = std::move(e);
    return v;
  }

  /// Clones the wrapped expression out (null only for a moved-from Val).
  ExprPtr take() const { return e_ ? e_->clone() : nullptr; }
  const Expr* expr() const { return e_.get(); }

 private:
  Val() = default;
  ExprPtr e_;
};

/// Scalar (or PARAMETER-constant) reference.
Val sym(std::string name);
/// Integer / real / logical literals (alternatives to the Val conversions).
Val cst(std::int64_t v);
Val rcst(double v);
Val lcst(bool v);
/// Array-element read `array(subs...)`.
Val elem(std::string array, std::vector<Val> subs);
/// Intrinsic call (max, min, mod, abs, ...).
Val fn(std::string name, std::vector<Val> args);

Val operator+(Val l, Val r);
Val operator-(Val l, Val r);
Val operator*(Val l, Val r);
Val operator/(Val l, Val r);
Val operator-(Val x);
Val pow(Val l, Val r);

Val operator==(Val l, Val r);
Val operator!=(Val l, Val r);
Val operator<(Val l, Val r);
Val operator<=(Val l, Val r);
Val operator>(Val l, Val r);
Val operator>=(Val l, Val r);
Val operator&&(Val l, Val r);
Val operator||(Val l, Val r);
Val operator!(Val x);

class ProcedureBuilder;

/// Lightweight handle to one region node — a basic block, a loop region, or
/// a guard region — of a procedure under construction. Copies freely; the
/// state lives in the ProcedureBuilder.
class NodeRef {
 public:
  NodeRef() = default;

  /// Statement emission into this block (misuse — e.g. emitting into a loop
  /// node — is reported as a diagnostic at build(), never an abort).
  NodeRef& assign(std::string scalar, Val value);
  NodeRef& store(std::string array, std::vector<Val> subs, Val value);
  NodeRef& call(std::string callee, std::vector<Val> args = {});
  NodeRef& ret();
  NodeRef& stop();
  NodeRef& cont(int label = 0);  ///< CONTINUE (labeled join point when != 0)
  NodeRef& jump(int label);      ///< GOTO label

  /// Chains control flow crab-style: `bb0 >> bb1 >> loop1`. Records an edge
  /// and returns the successor so chains read left to right.
  NodeRef operator>>(NodeRef next) const;

  bool valid() const { return pb_ != nullptr && id_ >= 0; }
  std::string_view name() const;

 private:
  friend class ProcedureBuilder;
  NodeRef(ProcedureBuilder* pb, int id) : pb_(pb), id_(id) {}
  ProcedureBuilder* pb_ = nullptr;
  int id_ = -1;
};

/// Result of ProgramBuilder::build(): the validated Program, or every
/// diagnostic that prevented one.
struct BuildResult {
  std::optional<Program> program;
  DiagnosticEngine diags;

  bool ok() const { return program.has_value(); }
  std::string error() const { return diags.str(); }
};

class ProgramBuilder;

/// Fluent construction of one procedure. Obtained from ProgramBuilder;
/// every mutator returns *this for chaining.
class ProcedureBuilder {
 public:
  // ------------------------------------------------------------- symbols
  /// Appends a formal parameter (declare its type with scalar()/array();
  /// undeclared formals fall back to Fortran implicit typing).
  ProcedureBuilder& param(std::string name);
  ProcedureBuilder& scalar(std::string name, BaseType type);
  ProcedureBuilder& integer(std::string name) { return scalar(std::move(name), BaseType::Integer); }
  ProcedureBuilder& real(std::string name) { return scalar(std::move(name), BaseType::Real); }
  ProcedureBuilder& logical(std::string name) { return scalar(std::move(name), BaseType::Logical); }
  /// Declares an array with upper bounds (implicit lower bound 1 per dim).
  ProcedureBuilder& array(std::string name, std::vector<Val> upperBounds,
                          BaseType type = BaseType::Real);
  /// Adopts a fully-formed declaration — explicit lower bounds, assumed-size
  /// '*' dims — the replay escape hatch rebuild() and re-parsing frontends
  /// use. array()/scalar() cover the common shapes.
  ProcedureBuilder& declare(VarDecl decl);
  /// PARAMETER constant.
  ProcedureBuilder& constant(std::string name, Val value);
  /// COMMON /block/ membership for already-declared variables.
  ProcedureBuilder& common(std::string block, std::vector<std::string> vars);

  // ------------------------------------------------------------ structure
  /// Sets the source location attached to subsequently created statements,
  /// blocks and regions (reports cite these lines; 0 = synthesized).
  ProcedureBuilder& at(int line, int column = 0);
  /// Attaches a numeric statement label to the next emitted statement.
  ProcedureBuilder& labelNext(int label);

  /// Creates a basic block in the current region and makes it the emission
  /// target. An empty name auto-generates "bb<N>".
  NodeRef block(std::string name = {});

  /// Opens a DO-loop region (a node of the current region); statements and
  /// blocks created until the matching endLoop() form its body.
  NodeRef beginLoop(std::string var, Val lo, Val hi);
  NodeRef beginLoop(std::string var, Val lo, Val hi, Val step);
  ProcedureBuilder& endLoop();

  /// Opens a guard (IF) region. beginElse() switches emission to the else
  /// branch; endGuard() closes it.
  NodeRef beginGuard(Val cond);
  ProcedureBuilder& beginElse();
  ProcedureBuilder& endGuard();

  // ----------------------------------------------- current-block emission
  /// Emission shortcuts targeting the current block (one is created on
  /// demand) — what stream-style frontends use.
  ProcedureBuilder& assign(std::string scalar, Val value);
  ProcedureBuilder& store(std::string array, std::vector<Val> subs, Val value);
  ProcedureBuilder& call(std::string callee, std::vector<Val> args = {});
  ProcedureBuilder& ret();
  ProcedureBuilder& stop();
  ProcedureBuilder& cont(int label = 0);
  ProcedureBuilder& jump(int label);

  const std::string& name() const { return name_; }

 private:
  friend class ProgramBuilder;
  friend class NodeRef;

  struct Node {
    enum class Kind : std::uint8_t { Block, Loop, Guard };
    Kind kind = Kind::Block;
    std::string name;
    int parent = -1;      ///< enclosing region node (-1 = procedure root)
    bool inElse = false;  ///< which branch of a Guard parent
    SourceLoc loc;
    int label = 0;  ///< statement label for Loop/Guard nodes
    // Block
    std::vector<StmtPtr> stmts;
    // Loop
    std::string doVar;
    ExprPtr lo, hi, step;
    // Guard
    ExprPtr cond;
    bool elseStarted = false;
    bool closed = true;  ///< Loop/Guard: endLoop()/endGuard() seen
    // Intra-region `>>` edges.
    std::vector<int> succs;
    std::vector<int> preds;
  };

  ProcedureBuilder(ProgramBuilder* owner, std::string name, bool isMain)
      : owner_(owner), name_(std::move(name)), isMain_(isMain) {}

  void diag(std::string message) { pending_.push_back({DiagKind::Error, loc_, std::move(message)}); }
  Node& node(int id) { return nodes_[static_cast<std::size_t>(id)]; }
  int currentRegion() const { return regionStack_.empty() ? -1 : regionStack_.back(); }
  int newNode(Node::Kind kind, std::string name);
  /// The block statements append to, created on demand in the current region.
  int emissionBlock();
  void appendStmt(int blockId, StmtPtr stmt);
  StmtPtr makeStmt(Stmt::Kind kind);
  void addEdge(int from, int to);

  /// Validates and emits this procedure into `out`; diagnostics go to
  /// `diags`. Returns false when any error was reported.
  bool emit(Procedure& out, DiagnosticEngine& diags);
  bool emitRegion(int parent, bool inElse, std::vector<StmtPtr>& out, DiagnosticEngine& diags);
  /// Orders the member nodes of one region by the `>>` edge chain (or
  /// creation order when no edges exist); reports malformed chains.
  bool orderRegion(const std::vector<int>& members, std::vector<int>& ordered,
                   DiagnosticEngine& diags);
  /// Reports every symbol name that breaks the lexers' identifier rule
  /// (isIdentifier): sema interns scalars as `scope::name` and the summary
  /// layer reserves `var'` for DO indices, so a name holding `:` or `'`
  /// could alias one of them.
  void checkIdentifier(const std::string& name, SourceLoc loc, DiagnosticEngine& diags) const;
  void checkIdentifiers(const Expr& e, DiagnosticEngine& diags) const;
  void checkIdentifiers(const Stmt& s, DiagnosticEngine& diags) const;
  void validateExpr(const Expr& e, bool analysisPosition, DiagnosticEngine& diags);
  void validateStmt(const Stmt& s, DiagnosticEngine& diags);
  void collectDefinedScalars(const Stmt& s);
  bool isDeclared(const std::string& name) const;

  ProgramBuilder* owner_ = nullptr;
  std::string name_;
  bool isMain_ = false;
  std::vector<std::string> params_;
  std::vector<VarDecl> decls_;
  std::vector<CommonBlock> commons_;
  std::vector<ParamConst> consts_;
  SourceLoc loc_;       ///< location applied to new statements/nodes
  SourceLoc procLoc_;   ///< the procedure's own location (first at() wins)
  bool procLocSet_ = false;
  int nextLabel_ = 0;   ///< labelNext() value for the next statement
  std::vector<Node> nodes_;
  std::vector<int> regionStack_;  ///< open Loop/Guard nodes
  int currentBlock_ = -1;         ///< emission target in the current region
  int autoBlockId_ = 0;
  std::vector<Diagnostic> pending_;  ///< emission-time misuse, surfaced at build()
  /// Loop variables of open + closed loops (declared-by-construction).
  std::vector<std::string> loopVars_;
  /// Scalars introduced by assignment or passed to a callee (Fortran
  /// implicit typing: a defined scalar is a known symbol). Collected at
  /// emit() time; consulted by the analysis-position strictness check.
  std::vector<std::string> definedScalars_;
  std::vector<int> stmtLabels_;  ///< labels attached to emitted statements
  std::vector<std::pair<int, SourceLoc>> gotoTargets_;  ///< labels GOTOs name
};

/// Entry point: declare procedures, then build() once to validate and
/// assemble the Program. The builder is single-shot — build() consumes the
/// accumulated state.
class ProgramBuilder {
 public:
  ProgramBuilder() = default;
  ProgramBuilder(const ProgramBuilder&) = delete;
  ProgramBuilder& operator=(const ProgramBuilder&) = delete;

  /// Starts (or resumes) a SUBROUTINE; the returned reference stays valid
  /// for the builder's lifetime.
  ProcedureBuilder& procedure(std::string name);
  /// Starts the main PROGRAM unit.
  ProcedureBuilder& mainProgram(std::string name);

  /// Validates every procedure and assembles the Program. All diagnostics
  /// are collected (the first error does not stop validation of the rest).
  BuildResult build();

 private:
  std::deque<ProcedureBuilder> procs_;  ///< deque: stable references
  bool built_ = false;
};

/// Replays an existing (pre-sema) AST through a fresh ProgramBuilder — the
/// parse → IR → rebuild round-trip used by the corpus round-trip test, the
/// ingestion bench and the fuzz tests. The rebuilt Program is structurally
/// identical to the input (same fingerprints), but every statement has
/// passed the builder's validation layer.
BuildResult rebuild(const Program& program);

/// Pretty-prints the frontend-neutral IR of a (pre- or post-sema) program:
/// per procedure the symbol declarations, the region tree with named basic
/// blocks, the `>>` edge chains, and each block's array reads/writes
/// (panorama_driver --dump-ir).
std::string dumpIr(const Program& program);

}  // namespace panorama::builder
