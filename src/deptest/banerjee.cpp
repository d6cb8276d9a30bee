// Banerjee's bounds test (any-direction form): f(i) - g(i') over the box
// lo <= i, i' <= up attains its extrema at corners; if 0 lies outside
// [min, max] the equation has no (real) solution and the references are
// independent in this dimension.
#include <algorithm>

#include "panorama/deptest/deptest.h"

namespace panorama {

Truth banerjeeIndependent(const SymExpr& f, const SymExpr& g, VarId index, const SymExpr& lo,
                          const SymExpr& up) {
  auto ff = AffineForm::fromExpr(f);
  auto gg = AffineForm::fromExpr(g);
  auto loC = lo.constantValue();
  auto upC = up.constantValue();
  if (!ff || !gg || !loC || !upC) return Truth::Unknown;
  if (*loC > *upC) return Truth::True;  // zero-trip loop: trivially none

  std::int64_t a = ff->coeffOf(index);
  std::int64_t b = gg->coeffOf(index);
  AffineForm rest = *ff - *gg;
  rest.extractVar(index);
  if (!rest.coeffs.empty()) return Truth::Unknown;  // uncancelled symbolics
  std::int64_t c = rest.constant;  // h = a*i - b*i' + c

  auto span = [&](std::int64_t coef) {
    std::int64_t atLo = coef * *loC;
    std::int64_t atUp = coef * *upC;
    return std::pair(std::min(atLo, atUp), std::max(atLo, atUp));
  };
  auto [aMin, aMax] = span(a);
  auto [bMin, bMax] = span(-b);
  std::int64_t hMin = aMin + bMin + c;
  std::int64_t hMax = aMax + bMax + c;
  if (0 < hMin || 0 > hMax) return Truth::True;
  return Truth::Unknown;
}

Truth refsIndependent(const Region& w, const Region& r, VarId index, const SymExpr& lo,
                      const SymExpr& up) {
  if (w.array() != r.array()) return Truth::True;
  if (w.rank() != r.rank()) return Truth::Unknown;
  for (int d = 0; d < w.rank(); ++d) {
    const SymRange& dw = w.dims()[d];
    const SymRange& dr = r.dims()[d];
    if (dw.isUnknown() || dr.isUnknown() || !dw.isPoint() || !dr.isPoint())
      return Truth::Unknown;
    // Loop-carried test: the (=) direction is not a carried dependence. If
    // the subscript pair can only collide at i = i', the dimension clears it.
    if (auto fw = AffineForm::fromExpr(dw.lo)) {
      if (auto fr = AffineForm::fromExpr(dr.lo)) {
        AffineForm diff = *fw - *fr;
        std::int64_t dcoef = diff.extractVar(index);
        if (dcoef == 0 && diff.coeffs.empty() && diff.constant == 0 &&
            fw->coeffOf(index) != 0)
          return Truth::True;  // identical moving subscripts: collide only at i = i'
      }
    }
    if (gcdIndependent(dw.lo, dr.lo, index) == Truth::True) return Truth::True;
    if (banerjeeIndependent(dw.lo, dr.lo, index, lo, up) == Truth::True) return Truth::True;
  }
  return Truth::Unknown;
}

}  // namespace panorama
