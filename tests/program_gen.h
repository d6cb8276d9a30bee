// The fuzz tests' random kernel generator: well-formed Fortran programs
// with affine and strided subscripts, nested loops with symbolic bounds, IF
// guards over integers and real array elements, scalar temporaries,
// induction variables and work-array patterns. A seed fixes the sequence
// of kernels `generate()` returns.
#pragma once

#include <random>
#include <sstream>
#include <string>

namespace panorama {

class ProgramGen {
 public:
  explicit ProgramGen(unsigned seed) : rng_(seed) {}

  std::string generate() {
    body_.str("");
    int n = pick(3, 8);
    int m = pick(2, 6);
    line(0, "program fz");
    line(0, "real wa(200), wb(200), wc(200)");
    line(0, "integer n, m, kv");
    line(0, "real t, cut");
    line(0, "n = " + std::to_string(n));
    line(0, "m = " + std::to_string(m));
    line(0, "kv = " + std::to_string(pick(1, 4)));
    line(0, "cut = " + std::to_string(pick(2, 30)) + ".0");
    // Pre-fill one array so reads see varied data.
    line(0, "do i0 = 1, 40");
    line(1, "wb(i0) = i0 * 3 - 20");
    line(0, "enddo");
    line(0, "do i = 1, n");
    bool usedInduction = false;
    int stmts = pick(2, 5);
    for (int k = 0; k < stmts; ++k) genStmt(1, usedInduction);
    if (usedInduction) line(1, "kv = kv + " + std::to_string(pick(1, 3)));
    line(0, "enddo");
    line(0, "end");
    return body_.str();
  }

 private:
  int pick(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng_); }
  bool coin() { return pick(0, 1) == 1; }

  void line(int indent, const std::string& text) {
    for (int k = 0; k < indent + 1; ++k) body_ << "  ";
    body_ << text << "\n";
  }

  std::string arrayName() {
    const char* names[] = {"wa", "wb", "wc"};
    return names[pick(0, 2)];
  }

  /// An affine subscript kept inside [1, 200] for the values in play
  /// (i <= 8, j <= 6, kv <= 4 + 3*8).
  std::string subscript(bool inner) {
    switch (pick(0, 5)) {
      case 0: return std::to_string(pick(1, 30));
      case 1: return "i + " + std::to_string(pick(0, 20));
      case 2: return inner ? "j + " + std::to_string(pick(0, 20)) : "i * 2 + 1";
      case 3: return "i * 2 + " + std::to_string(pick(1, 9));
      case 4: return "kv + " + std::to_string(pick(0, 8));
      default: return inner ? "i + j" : "i + 1";
    }
  }

  std::string valueExpr(bool inner) {
    switch (pick(0, 4)) {
      case 0: return "i * 2 + 1";
      case 1: return arrayName() + "(" + subscript(inner) + ") + 1";
      case 2: return "t + i";
      case 3: return inner ? "j - i" : "i - 3";
      default: return arrayName() + "(" + subscript(inner) + ") * 2 + i";
    }
  }

  std::string condition(bool inner) {
    switch (pick(0, 3)) {
      case 0: return "i .le. " + std::to_string(pick(1, 6));
      case 1: return "m .gt. " + std::to_string(pick(1, 5));
      case 2: return arrayName() + "(" + subscript(inner) + ") .gt. cut";
      default: return inner ? "j .ge. 2" : "i .ne. " + std::to_string(pick(1, 6));
    }
  }

  void genStmt(int depth, bool& usedInduction, bool inner = false) {
    int kind = pick(0, 9);
    if (depth >= 3) kind = pick(0, 4);  // cap nesting
    switch (kind) {
      case 0:
      case 1:
      case 2: {  // array write
        line(depth, arrayName() + "(" + subscript(inner) + ") = " + valueExpr(inner));
        return;
      }
      case 3: {  // scalar temp
        line(depth, "t = " + valueExpr(inner));
        return;
      }
      case 4: {  // scalar consumed into an array
        line(depth, "t = " + valueExpr(inner));
        line(depth, arrayName() + "(" + subscript(inner) + ") = t");
        return;
      }
      case 5:
      case 6: {  // inner loop over j
        std::string up = coin() ? "m" : std::to_string(pick(2, 5));
        line(depth, "do j = 1, " + up);
        int stmts = pick(1, 2);
        for (int k = 0; k < stmts; ++k) genStmt(depth + 1, usedInduction, true);
        line(depth, "enddo");
        return;
      }
      case 7:
      case 8: {  // IF
        line(depth, "if (" + condition(inner) + ") then");
        genStmt(depth + 1, usedInduction, inner);
        if (coin()) {
          line(depth, "else");
          genStmt(depth + 1, usedInduction, inner);
        }
        line(depth, "endif");
        return;
      }
      default: {  // mark that an induction update should be appended
        if (!inner) usedInduction = true;
        line(depth, arrayName() + "(kv + " + std::to_string(pick(0, 5)) + ") = i");
        return;
      }
    }
  }

  std::mt19937 rng_;
  std::ostringstream body_;
};

}  // namespace panorama
