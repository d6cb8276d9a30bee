// The hash-consing arena behind PredRef — the predicate-layer twin of
// symbolic/arena.h: the process-wide table of predicate nodes
// (support/intern_table.h). Atom equality inside the dedup compare is O(1)
// because atoms hold interned expression handles and table keys.
#pragma once

#include <span>

#include "panorama/predicate/predicate.h"
#include "panorama/support/intern_table.h"

namespace panorama {

/// The predicate arena; `PredArena::global().stats()` is its occupancy.
using PredArena = InternTable<detail::PredNode>;

/// Interns a *canonical* clause list (see predicate.h for the invariant)
/// and returns the unique handle. The clauses are copied only when the
/// value is new.
PredRef internPred(std::span<const Disjunct> clauses, bool unknown);

}  // namespace panorama
