// Interval/congruence pre-filter (see absdom.h for the discharge contract).
//
// Soundness shape: precision bugs here cannot change verdicts. True/Unknown
// only come from exact mirrors of the classic engine's screening, and False
// only comes from a witness that exact 128-bit substitution has verified
// against every constraint. The interval fixpoint and the greedy assignment
// order are merely heuristics that decide *whether* a witness is found; a
// missed witness declines to the precise engine.
#include "panorama/predicate/absdom.h"

#include <algorithm>
#include <numeric>

namespace panorama::absdom {

namespace {

using Int128 = __int128;

// Accumulator guard: products of int64s stay below 2^126; keeping every
// intermediate below 2^120 makes each further addition overflow-free.
const Int128 kGuard = Int128(1) << 120;

bool guarded(Int128 v) { return v > -kGuard && v < kGuard; }

constexpr std::size_t kMaxRounds = 6;

struct VarSlot {
  VarId var;
  Interval itv;
};

std::size_t slotOf(const std::vector<VarSlot>& slots, VarId v) {
  auto it = std::lower_bound(slots.begin(), slots.end(), v,
                             [](const VarSlot& s, VarId x) { return s.var < x; });
  return static_cast<std::size_t>(it - slots.begin());
}

/// Refines every variable of `form <= 0` once; returns false when a derived
/// bound proves the interval store empty beyond int64 representation.
bool refineLE(const AffineForm& form, std::vector<VarSlot>& slots, bool& changed) {
  for (const auto& [v, a] : form.coeffs) {
    // a*v <= -constant - min(sum of the other terms)
    Int128 bound = -Int128(form.constant);
    bool unbounded = false;
    for (const auto& [u, au] : form.coeffs) {
      if (u == v) continue;
      const Interval& iu = slots[slotOf(slots, u)].itv;
      if (au > 0) {
        if (iu.loInf) {
          unbounded = true;
          break;
        }
        bound -= Int128(au) * iu.lo;
      } else {
        if (iu.hiInf) {
          unbounded = true;
          break;
        }
        bound -= Int128(au) * iu.hi;
      }
      if (!guarded(bound)) {
        unbounded = true;
        break;
      }
    }
    if (unbounded) continue;
    Interval& iv = slots[slotOf(slots, v)].itv;
    if (a > 0) {
      Int128 q = bound / a;  // floor(bound / a), a > 0
      if ((bound % a != 0) && bound < 0) --q;
      if (q < INT64_MIN) return false;  // v <= something below int64: no witness
      if (q <= INT64_MAX) changed |= iv.clampHi(static_cast<std::int64_t>(q));
    } else {
      Int128 q = bound / a;  // ceil(bound / a), a < 0
      if ((bound % a != 0) && ((bound < 0) == (a < 0))) ++q;
      if (q > INT64_MAX) return false;  // v >= something above int64: no witness
      if (q >= INT64_MIN) changed |= iv.clampLo(static_cast<std::int64_t>(q));
    }
  }
  return true;
}

bool constantViolated(ConstraintKind kind, Int128 c) {
  switch (kind) {
    case ConstraintKind::LE0: return c > 0;
    case ConstraintKind::EQ0: return c != 0;
    case ConstraintKind::NE0: return c == 0;
  }
  return true;
}

/// Substitutes v := value into every form, folding the term into the
/// constant; false when a folded constant leaves int64 (no witness along
/// this branch is representable) or a now-constant form is violated.
bool substitute(std::vector<LinearConstraint>& forms, VarId v, std::int64_t value) {
  for (LinearConstraint& f : forms) {
    auto& coeffs = f.form.coeffs;
    for (std::size_t k = 0; k < coeffs.size(); ++k) {
      if (coeffs[k].first != v) continue;
      Int128 folded = Int128(f.form.constant) + Int128(coeffs[k].second) * value;
      if (folded < INT64_MIN || folded > INT64_MAX) return false;
      f.form.constant = static_cast<std::int64_t>(folded);
      coeffs.erase(coeffs.begin() + static_cast<std::ptrdiff_t>(k));
      break;
    }
    if (coeffs.empty() && constantViolated(f.kind, Int128(f.form.constant))) return false;
  }
  return true;
}

}  // namespace

bool Interval::clampHi(std::int64_t bound) {
  if (!hiInf && hi <= bound) return false;
  hi = bound;
  hiInf = false;
  return true;
}

bool Interval::clampLo(std::int64_t bound) {
  if (!loInf && lo >= bound) return false;
  lo = bound;
  loInf = false;
  return true;
}

namespace {

/// The interval fixpoint of `constraints` into `slots` (one per distinct
/// variable, ascending), reusing its capacity. False when a derived bound
/// escaped int64 in the emptying direction: no int64 witness can exist.
bool fixpointInto(const std::vector<LinearConstraint>& constraints,
                  std::vector<VarSlot>& slots) {
  slots.clear();
  for (const LinearConstraint& c : constraints)
    for (const auto& [v, coeff] : c.form.coeffs) {
      std::size_t at = slotOf(slots, v);
      if (at == slots.size() || slots[at].var != v)
        slots.insert(slots.begin() + static_cast<std::ptrdiff_t>(at), {v, Interval::top()});
    }

  thread_local AffineForm flipped;  // an equality's second half, -form <= 0
  for (std::size_t round = 0; round < kMaxRounds; ++round) {
    bool changed = false;
    for (const LinearConstraint& c : constraints) {
      if (c.kind == ConstraintKind::NE0) continue;
      if (!refineLE(c.form, slots, changed)) return false;
      if (c.kind != ConstraintKind::EQ0) continue;
      c.form.scaledInto(-1, flipped);
      if (!refineLE(flipped, slots, changed)) return false;
    }
    if (!changed) break;
  }
  return true;
}

}  // namespace

std::vector<std::pair<VarId, Interval>> intervalFixpoint(
    const std::vector<LinearConstraint>& constraints) {
  std::vector<VarSlot> slots;
  const bool representable = fixpointInto(constraints, slots);
  std::vector<std::pair<VarId, Interval>> out;
  out.reserve(slots.size());
  for (const VarSlot& s : slots) out.emplace_back(s.var, s.itv);
  if (!representable && !out.empty()) {
    // A bound escaped int64 in the emptying direction: poison the store so
    // the caller declines (no int64 witness can exist).
    out.front().second = Interval{1, 0, false, false};
  }
  return out;
}

std::optional<Truth> tryDischarge(const std::vector<LinearConstraint>& constraints,
                                  const FmBudget& budget) {
  // Screen 1 — overflow poison: exact mirror of the classic engine, which
  // answers Unknown before anything else when any form carries the bit.
  for (const LinearConstraint& c : constraints)
    if (c.form.overflow) return Truth::Unknown;

  // Screen 2 — all-constant system: exact mirror of the classic screen
  // (violated constant => True, otherwise the empty elimination => False).
  bool allConstant = true;
  for (const LinearConstraint& c : constraints)
    if (!c.form.isConstant()) {
      allConstant = false;
      break;
    }
  if (allConstant) {
    for (const LinearConstraint& c : constraints)
      if (constantViolated(c.kind, Int128(c.form.constant))) return Truth::True;
    return Truth::False;
  }

  // From here on only a verified witness (=> False) may discharge; any True
  // verdict belongs to the precise engine.
  if (constraints.size() > budget.maxConstraints) return std::nullopt;

  // Congruence screen: an equality whose coefficient gcd does not divide
  // the constant has no integer solution, so no witness exists — decline
  // and let the tightening in the precise engine produce the verdict.
  for (const LinearConstraint& c : constraints) {
    if (c.kind != ConstraintKind::EQ0 || c.form.coeffs.empty()) continue;
    std::int64_t g = 0;
    for (const auto& [v, a] : c.form.coeffs) g = std::gcd(g, a < 0 ? -a : a);
    if (g > 1 && (c.form.constant % g) != 0) return std::nullopt;
  }

  // Per-thread buffers, reused through assign and swap so a query copies
  // no constraint vector per candidate value.
  thread_local std::vector<VarSlot> slots;
  thread_local std::vector<LinearConstraint> working;
  thread_local std::vector<LinearConstraint> trial;
  thread_local std::vector<std::pair<VarId, std::int64_t>> assignment;

  bool representable = fixpointInto(constraints, slots);
  const std::size_t varCount = slots.size();
  if (varCount > budget.maxVariables) return std::nullopt;

  // Greedy witness search in ascending variable order: pinned equality
  // value first, then the interval ends and zero, each candidate checked by
  // exact substitution into a working copy. Intervals are recomputed from
  // the reduced system before every choice, so earlier assignments steer
  // later candidates (1 <= i <= n first pins i = 1, then bounds n). No
  // backtracking — a dead end declines to the precise engine.
  working.assign(constraints.begin(), constraints.end());
  assignment.clear();

  for (std::size_t round = 0; round < varCount; ++round) {
    if (!representable) return std::nullopt;
    for (const VarSlot& s : slots)
      if (s.itv.empty()) return std::nullopt;

    // The fixpoint only covers variables still present in the working
    // system; assigned (and vanished) variables are gone from it.
    if (slots.empty()) break;
    const VarId v = slots.front().var;
    const Interval itv = slots.front().itv;

    std::int64_t pinned = 0;
    bool hasPinned = false;
    for (const LinearConstraint& f : working) {
      if (f.kind != ConstraintKind::EQ0 || f.form.coeffs.size() != 1 ||
          f.form.coeffs[0].first != v)
        continue;
      const std::int64_t a = f.form.coeffs[0].second;
      if (f.form.constant % a != 0) return std::nullopt;  // no integer value fits
      pinned = -(f.form.constant / a);
      hasPinned = true;
      break;
    }

    std::int64_t candidates[4];
    std::size_t n = 0;
    if (hasPinned) {
      candidates[n++] = pinned;
    } else if (!itv.loInf && !itv.hiInf && itv.lo == itv.hi) {
      candidates[n++] = itv.lo;
    } else {
      if (!itv.loInf) candidates[n++] = itv.lo;
      if (itv.contains(0)) candidates[n++] = 0;
      if (!itv.hiInf) candidates[n++] = itv.hi;
      if (n == 0) candidates[n++] = 0;
      // Disequalities are invisible to the interval store, so every bound
      // candidate can land exactly on a `v != c` value; keep one nudged
      // fallback (lo+1, or 1 for an unbounded-below interval) in reserve.
      const std::int64_t nudge = !itv.loInf && itv.lo < INT64_MAX ? itv.lo + 1 : 1;
      if (itv.contains(nudge)) candidates[n++] = nudge;
    }

    bool assigned = false;
    for (std::size_t k = 0; k < n && !assigned; ++k) {
      if (k > 0 && candidates[k] == candidates[k - 1]) continue;
      trial.assign(working.begin(), working.end());
      if (substitute(trial, v, candidates[k])) {
        working.swap(trial);
        assignment.emplace_back(v, candidates[k]);
        assigned = true;
      }
    }
    if (!assigned) return std::nullopt;
    representable = fixpointInto(working, slots);
  }

  if (assignment.size() != varCount) return std::nullopt;

  // Exact verification against the *original* constraints: evaluate every
  // form at the assignment in 128-bit. The working copies above only steer
  // the search; this check alone justifies the False verdict.
  for (const LinearConstraint& c : constraints) {
    Int128 acc = c.form.constant;
    for (const auto& [v, a] : c.form.coeffs) {
      auto it = std::lower_bound(
          assignment.begin(), assignment.end(), v,
          [](const std::pair<VarId, std::int64_t>& p, VarId x) { return p.first < x; });
      if (it == assignment.end() || it->first != v) return std::nullopt;
      acc += Int128(a) * it->second;
      if (!guarded(acc)) return std::nullopt;
    }
    if (constantViolated(c.kind, acc)) return std::nullopt;
  }
  return Truth::False;
}

}  // namespace panorama::absdom
