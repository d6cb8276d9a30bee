// The hash-consing arena behind ExprRef: every distinct expression value is
// stored once, in the process-wide expression table (support/intern_table.h,
// which also states the id layout), and addressed by a stable node pointer
// thereafter. The structural hash is computed exactly once, when a value is
// first interned, and equality of handles is a pointer compare.
#pragma once

#include <optional>
#include <span>

#include "panorama/support/intern_table.h"
#include "panorama/symbolic/expr.h"

namespace panorama {

/// The expression arena; `ExprArena::global().stats()` is its occupancy.
using ExprArena = InternTable<detail::ExprNode>;

/// Interns a *canonical* term list (sorted, merged, zero-coefficient free;
/// poisoned values carry no terms) and returns the unique handle. The terms
/// are copied only when the value is new.
ExprRef internExpr(std::span<const Term> terms, bool poisoned);

/// Node-level memo for single-variable substitution: a bounded, sharded map
/// (exprId, var, replacementId) -> result handle. Entries can never go stale
/// (nodes are immutable and ids are never reused); the table is enabled and
/// sized through QueryCache::global()'s capacity, so `--no-cache` disables
/// it together with the verdict caches.
std::optional<ExprRef> substituteMemoLookup(const ExprRef& e, VarId v, const ExprRef& r);
void substituteMemoStore(const ExprRef& e, VarId v, const ExprRef& r, const ExprRef& result);

}  // namespace panorama
