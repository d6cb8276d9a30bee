#include "panorama/symbolic/affine.h"

#include <algorithm>
#include <numeric>

namespace panorama {

namespace {

bool addInto(std::int64_t& acc, std::int64_t v) {
  return !__builtin_add_overflow(acc, v, &acc);
}

bool mulChecked(std::int64_t a, std::int64_t b, std::int64_t& out) {
  return !__builtin_mul_overflow(a, b, &out);
}

}  // namespace

std::int64_t AffineForm::coeffOf(VarId v) const {
  for (const auto& [var, c] : coeffs)
    if (var == v) return c;
  return 0;
}

std::optional<AffineForm> AffineForm::fromExpr(const SymExpr& e) {
  AffineForm f;
  if (!fromExprInto(e, f)) return std::nullopt;
  return f;
}

bool AffineForm::fromExprInto(const SymExpr& e, AffineForm& f) {
  if (e.isPoisoned() || e.degree() > 1) return false;
  f.coeffs.clear();
  f.constant = 0;
  f.overflow = false;
  for (const Term& t : e.terms()) {
    if (t.vars.empty())
      f.constant = t.coef;
    else
      f.coeffs.emplace_back(t.vars[0], t.coef);
  }
  std::sort(f.coeffs.begin(), f.coeffs.end());
  return true;
}

SymExpr AffineForm::toExpr() const {
  if (overflow) return SymExpr::poisoned();
  SymExpr e = SymExpr::constant(constant);
  for (const auto& [var, c] : coeffs) e = e + SymExpr::variable(var).mulConst(c);
  return e;
}

AffineForm AffineForm::scaled(std::int64_t k) const {
  AffineForm r;
  scaledInto(k, r);
  return r;
}

void AffineForm::scaledInto(std::int64_t k, AffineForm& r) const {
  r.coeffs.clear();
  r.constant = 0;
  r.overflow = overflow;
  if (k == 0 || overflow) return;
  for (const auto& [var, c] : coeffs) {
    std::int64_t nc;
    if (!mulChecked(c, k, nc)) {
      r.overflow = true;
      return;
    }
    r.coeffs.emplace_back(var, nc);
  }
  if (!mulChecked(constant, k, r.constant)) r.overflow = true;
}

AffineForm operator+(const AffineForm& a, const AffineForm& b) {
  AffineForm r;
  if (a.overflow || b.overflow) {
    r.overflow = true;
    return r;
  }
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.coeffs.size() || j < b.coeffs.size()) {
    if (j == b.coeffs.size() || (i < a.coeffs.size() && a.coeffs[i].first < b.coeffs[j].first)) {
      r.coeffs.push_back(a.coeffs[i++]);
    } else if (i == a.coeffs.size() || b.coeffs[j].first < a.coeffs[i].first) {
      r.coeffs.push_back(b.coeffs[j++]);
    } else {
      std::int64_t c = a.coeffs[i].second;
      if (!addInto(c, b.coeffs[j].second)) {
        r.overflow = true;
        return r;
      }
      if (c != 0) r.coeffs.emplace_back(a.coeffs[i].first, c);
      ++i;
      ++j;
    }
  }
  r.constant = a.constant;
  if (!addInto(r.constant, b.constant)) r.overflow = true;
  return r;
}

AffineForm operator-(const AffineForm& a, const AffineForm& b) { return a + b.scaled(-1); }

std::int64_t AffineForm::extractVar(VarId v) {
  for (auto it = coeffs.begin(); it != coeffs.end(); ++it) {
    if (it->first == v) {
      std::int64_t c = it->second;
      coeffs.erase(it);
      return c;
    }
  }
  return 0;
}

void AffineForm::tightenLE() {
  if (overflow || coeffs.empty()) return;
  std::int64_t g = 0;
  for (const auto& [var, c] : coeffs) g = std::gcd(g, c);
  if (g <= 1) return;
  for (auto& [var, c] : coeffs) c /= g;
  // g*X + constant <= 0  =>  X <= floor(-constant/g)  =>  X + ceil(constant/g) <= 0
  std::int64_t q = constant / g;
  if (constant % g != 0 && constant > 0) ++q;  // ceiling for positive remainders
  constant = q;
}

}  // namespace panorama
