// A kernel whose dependence tests get inconclusive Fourier-Motzkin
// verdicts: one subroutine with the same loop twice, back to back, guarded
// by a sum of 26 variables, more than FmBudget::maxVariables (24). Both
// loops ask the same cold queries, so a test that clears the memo tables
// can check that a loop's --explain evidence does not depend on which
// thread, submit or session evaluated a query first.
#pragma once

#include <string>

namespace panorama::wide_guard {

/// The kernel; `edited` appends `b(i) = 3.0` to the first loop's body and
/// declares `b`, so a warm submit of it re-analyzes that loop only.
inline std::string kernel(bool edited = false) {
  std::string vars, sum;
  for (int k = 1; k <= 26; ++k) {
    vars += (k > 1 ? ", x" : "x") + std::to_string(k);
    sum += (k > 1 ? " + x" : "x") + std::to_string(k);
  }
  auto loop = [&](bool withB) {
    std::string s = "      do i = 2, n\n";
    s += "        if (" + sum + " .gt. i) then\n";
    s += "          w(i) = 1.0\n";
    s += "        endif\n";
    s += "        a(i) = w(i)\n";
    if (withB) s += "        b(i) = 3.0\n";
    s += "      enddo\n";
    return s;
  };
  std::string src = "      program p\n";
  src += "      integer n, " + vars + "\n";
  src += "      n = 50\n";
  src += "      call s(n, " + vars + ")\n";
  src += "      end\n";
  src += "      subroutine s(n, " + vars + ")\n";
  src += "      integer n, i, " + vars + "\n";
  src += edited ? "      real a(100), w(100), b(100)\n" : "      real a(100), w(100)\n";
  src += "      common /g/ a\n";
  src += loop(edited) + loop(false);
  src += "      end\n";
  return src;
}

}  // namespace panorama::wide_guard
