// Semantic analysis: resolves names, classifies `ident(args)` references
// (array element vs intrinsic), lowers declared array shapes, unifies COMMON
// variables across procedures, checks the call graph is acyclic (§4's
// assumption), and exposes the lowering from AST expressions into the
// symbolic layer (SymExpr for integer values, Pred for conditions).
//
// Symbol identity: scalars and arrays are interned into program-global
// tables. A local `x` of procedure `p` becomes `p::x`; a variable in COMMON
// /blk/ becomes `blk::x` and is shared by every procedure declaring it
// (matching by name — the corpus follows this discipline).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "panorama/ast/ast.h"
#include "panorama/region/region.h"

namespace panorama {

/// Per-procedure view of the global symbol tables.
struct ProcSymbols {
  const Procedure* proc = nullptr;
  std::unordered_map<std::string, VarId> scalars;     ///< local name -> global id
  std::unordered_map<std::string, ArrayId> arrayIds;  ///< local name -> global id
  std::unordered_map<std::string, BaseType> types;    ///< scalar types
  std::map<std::string, SymExpr> consts;              ///< PARAMETER constants
  /// The procedures this one CALLs, each once, in name order: the program's
  /// one call graph. The scheduler counts a procedure's dependencies on it
  /// and the session records a unit's deps from it.
  std::vector<const Procedure*> callees;

  bool isScalar(std::string_view name) const { return scalars.contains(std::string(name)); }
  bool isArray(std::string_view name) const { return arrayIds.contains(std::string(name)); }
  std::optional<VarId> scalarId(std::string_view name) const;
  std::optional<ArrayId> arrayId(std::string_view name) const;
  BaseType typeOf(std::string_view name) const;
};

struct SemaResult {
  SymbolTable symbols;  ///< program-global scalar symbols
  ArrayTable arrays;    ///< program-global arrays with declared shapes
  std::map<std::string, ProcSymbols> procs;
  /// Callees before callers (reverse topological over the call graph).
  std::vector<const Procedure*> bottomUpOrder;
  const Procedure* main = nullptr;

  const ProcSymbols& of(const Procedure& p) const { return procs.at(p.name); }
};

/// Runs semantic analysis. Mutates `program` in place (reclassifying
/// intrinsic references). Returns nullopt and reports diagnostics on error.
std::optional<SemaResult> analyze(Program& program, DiagnosticEngine& diags);

/// Variant for the incremental session: interns into the supplied
/// (persistent, append-only) tables instead of fresh ones, so VarId/ArrayId
/// of names already seen in earlier submits stay stable — the handle
/// stability that lets cached summaries be reused verbatim. Re-declared
/// arrays update their shape in place (last declaration wins). The tables
/// are taken by value; on success they come back inside the SemaResult.
std::optional<SemaResult> analyze(Program& program, DiagnosticEngine& diags,
                                  SymbolTable symbols, ArrayTable arrays);

/// True for the recognized Fortran intrinsics (max, min, mod, abs, ...).
bool isIntrinsicName(std::string_view name);

/// Lowers an integer-valued expression to a SymExpr. Anything outside the
/// symbolic fragment (array references, real arithmetic, intrinsics other
/// than unnested MAX/MIN-free arithmetic, division that is not exact) lowers
/// to the poisoned expression.
SymExpr lowerInt(const Expr& e, const ProcSymbols& sym);

/// Whether `e` is integer-valued in the procedure (drives the choice between
/// integer and real-valued comparison atoms).
bool isIntegerValued(const Expr& e, const ProcSymbols& sym);

/// Lowers a condition to a guard predicate. Comparisons between integer
/// expressions become integer atoms; comparisons with real operands become
/// real-valued atoms; logical scalars become LogVar atoms; anything with an
/// array reference or other unlowerable content becomes Δ.
Pred lowerCond(const Expr& e, const ProcSymbols& sym);

}  // namespace panorama
