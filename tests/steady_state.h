// The stationary edit stream the steady-state tests replay (session,
// snapshot-restart and daemon paths): a two-procedure kernel whose loop
// nests all run over `i`, and one cycle of {loop edit, revert, procedure
// edit, revert, comment shift, revert}. Every text of the cycle has been
// analyzed once the first cycle ends, so from then on a warm path that
// re-derives only cached work interns no new symbol, expression or
// predicate and misses no verdict.
#pragma once

#include <string>
#include <vector>

namespace panorama::steady {

enum class Edit { None, Loop, Proc, Comment };

inline std::string kernel(Edit edit) {
  std::string src;
  if (edit == Edit::Comment) src += "c shifted down by one line\n";
  src += "      subroutine left(a, n)\n";
  src += "      integer n\n";
  src += "      real a(100,100)\n";
  src += "      real t\n";
  src += "      do 10 i = 1, n\n";
  src += "      do 11 j = 1, n\n";
  src += "      t = a(j,i) + 1.0\n";
  if (edit == Edit::Loop) src += "      t = t * 3.0\n";
  src += "      a(j,i) = t * 2.0\n";
  src += "11    continue\n";
  src += "10    continue\n";
  src += "      do 20 i = 2, n\n";
  src += "      if (i .gt. 3) then\n";
  src += "      a(i,1) = a(i-1,1) + 1.0\n";
  src += "      endif\n";
  src += "20    continue\n";
  src += "      end\n";
  src += "      subroutine right(b, n)\n";
  src += "      integer n\n";
  src += "      real b(100)\n";
  src += "      do 30 i = 1, n\n";
  src += "      b(i) = 0.0\n";
  src += "30    continue\n";
  if (edit == Edit::Proc) src += "      b(1) = 1.0\n";
  src += "      end\n";
  return src;
}

/// One cycle of the stream; the session starts from kernel(Edit::None).
inline std::vector<std::string> cycle() {
  const std::string base = kernel(Edit::None);
  return {kernel(Edit::Loop), base, kernel(Edit::Proc), base, kernel(Edit::Comment), base};
}

}  // namespace panorama::steady
