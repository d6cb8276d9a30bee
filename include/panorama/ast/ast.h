// Abstract syntax tree for the Fortran 77 subset the analyzer consumes.
// The AST doubles as the IR: the HSG builder, the summary algorithms, and
// the validation interpreter all walk it directly.
//
// Supported subset (everything the paper's evaluation programs need):
//   PROGRAM / SUBROUTINE, INTEGER / REAL / LOGICAL declarations, DIMENSION,
//   COMMON, PARAMETER, assignments, DO / ENDDO and labeled DO, logical IF
//   and block IF / ELSE IF / ELSE / ENDIF, GOTO, CONTINUE, CALL, RETURN,
//   STOP, arithmetic / relational / logical expressions, and a handful of
//   intrinsics (MAX, MIN, MOD, ABS, SQRT, ...).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "panorama/support/diagnostics.h"

namespace panorama {

enum class BaseType : std::uint8_t { Integer, Real, Logical };

enum class BinOp : std::uint8_t {
  Add, Sub, Mul, Div, Pow,
  Lt, Le, Gt, Ge, Eq, Ne,
  And, Or,
};

enum class UnOp : std::uint8_t { Neg, Not };

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind : std::uint8_t {
    IntLit, RealLit, LogicalLit,
    VarRef,    ///< scalar reference (or formal parameter)
    ArrayRef,  ///< name(args...) resolved by sema to an array element
    Intrinsic, ///< name(args...) resolved by sema to an intrinsic function
    Binary, Unary,
  };

  Kind kind;
  SourceLoc loc;

  std::int64_t intValue = 0;    // IntLit
  double realValue = 0.0;       // RealLit
  bool logicalValue = false;    // LogicalLit
  std::string name;             // VarRef / ArrayRef / Intrinsic
  BinOp binOp = BinOp::Add;     // Binary
  UnOp unOp = UnOp::Neg;        // Unary
  std::vector<ExprPtr> args;    // subscripts / intrinsic args / operands

  static ExprPtr intLit(std::int64_t v, SourceLoc loc = {});
  static ExprPtr realLit(double v, SourceLoc loc = {});
  static ExprPtr logicalLit(bool v, SourceLoc loc = {});
  static ExprPtr var(std::string name, SourceLoc loc = {});
  static ExprPtr arrayRef(std::string name, std::vector<ExprPtr> subs, SourceLoc loc = {});
  static ExprPtr intrinsic(std::string name, std::vector<ExprPtr> args, SourceLoc loc = {});
  static ExprPtr binary(BinOp op, ExprPtr l, ExprPtr r, SourceLoc loc = {});
  static ExprPtr unary(UnOp op, ExprPtr operand, SourceLoc loc = {});

  ExprPtr clone() const;
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  enum class Kind : std::uint8_t {
    Assign,    ///< lhs = rhs
    If,        ///< block or logical IF (normalized to then/else bodies)
    Do,        ///< DO var = lo, hi [, step]
    Goto,      ///< GOTO label
    Continue,  ///< CONTINUE (possibly a labeled join point)
    Call,      ///< CALL name(args)
    Return,
    Stop,
  };

  Kind kind;
  SourceLoc loc;
  int label = 0;  ///< numeric statement label, 0 if none

  ExprPtr lhs;                  // Assign
  ExprPtr rhs;                  // Assign
  ExprPtr cond;                 // If
  std::vector<StmtPtr> thenBody;
  std::vector<StmtPtr> elseBody;
  std::string doVar;            // Do
  ExprPtr lo, hi, step;         // Do (step may be null: defaults to 1)
  std::vector<StmtPtr> body;    // Do
  int gotoLabel = 0;            // Goto
  std::string callee;           // Call
  std::vector<ExprPtr> args;    // Call
};

/// One declared variable. Array bounds are expressions (typically literals
/// or PARAMETER symbols; symbolic bounds of formals are allowed).
struct VarDecl {
  std::string name;
  BaseType type = BaseType::Real;
  struct DimBound {
    ExprPtr lo;  ///< null means the implicit lower bound 1
    ExprPtr up;  ///< null means an assumed-size '*' bound
  };
  std::vector<DimBound> dims;  ///< empty for scalars
  SourceLoc loc;

  bool isArray() const { return !dims.empty(); }
};

struct CommonBlock {
  std::string name;  ///< empty for blank common
  std::vector<std::string> vars;
};

struct ParamConst {
  std::string name;
  ExprPtr value;
};

struct Procedure {
  std::string name;
  bool isMain = false;
  std::vector<std::string> params;  ///< formal parameter names, in order
  std::vector<VarDecl> decls;
  std::vector<CommonBlock> commons;
  std::vector<ParamConst> paramConsts;
  std::vector<StmtPtr> body;
  SourceLoc loc;

  const VarDecl* findDecl(std::string_view name) const;
};

struct Program {
  std::vector<Procedure> procedures;

  const Procedure* findProcedure(std::string_view name) const;
};

/// The DO statements of `stmts` and everything nested in them, in pre-order
/// (a loop before its body; then-, else-, then loop-body lists). This is the
/// order loop reports are emitted in and the order session snapshots index
/// loop summaries by. A procedure's list is the concatenation of its
/// top-level statements' lists, so `std::span(body).subspan(k, 1)` yields
/// statement k's slice of it.
std::vector<const Stmt*> collectDoLoops(std::span<const StmtPtr> stmts);

/// Lines printed around one DO statement: `open` above it and `close` below
/// its ENDDO (codegen's parallel directives, which lex as comments).
struct DoAnnotation {
  std::string open;
  std::string close;
};

/// The Fortran printer: fixed-form source the parser reads back, with
/// declarations, PARAMETER constants, COMMON blocks and statement labels
/// (codegen's emitter, and the print → parse → print round-trip tests).
std::string toString(const Expr& e);
std::string toString(const Procedure& p);
std::string toString(const Program& p,
                     const std::map<const Stmt*, DoAnnotation>& annotations = {});

}  // namespace panorama
