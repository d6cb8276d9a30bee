// The fuzz tests' random kernel generator: well-formed Fortran programs
// with affine and strided subscripts, nested loops with symbolic bounds, IF
// guards over integers and real array elements, scalar temporaries,
// induction variables and work-array patterns. A seed fixes the sequence
// of kernels `generate()` returns.
//
// MultiProcGen builds on it for the edit oracle: programs of a main
// program and 2 to 4 subroutines linked by CALLs, each a list of
// top-level items (ProgramGen loop nests, work-array nests, calls) that a
// seeded edit script can insert, delete, modify and reorder.
#pragma once

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace panorama {

class ProgramGen {
 public:
  explicit ProgramGen(unsigned seed) : rng_(seed) {}

  /// One `do i = 1, <up>` nest of 1 to 4 random statements over `arrays`
  /// (three names, declared 200 long by the caller; the scalars t, cut, m
  /// and kv and the indices i and j are the caller's too), one line per
  /// element.
  std::vector<std::string> nest(const std::vector<std::string>& arrays, const std::string& up) {
    const std::vector<std::string> kernelArrays = std::exchange(arrays_, arrays);
    body_.str("");
    line(0, "do i = 1, " + up);
    bool usedInduction = false;
    int stmts = pick(1, 4);
    for (int k = 0; k < stmts; ++k) genStmt(1, usedInduction);
    if (usedInduction) line(1, "kv = kv + " + std::to_string(pick(1, 3)));
    line(0, "enddo");
    arrays_ = kernelArrays;
    std::vector<std::string> out;
    std::istringstream lines(body_.str());
    for (std::string l; std::getline(lines, l);) out.push_back(l.substr(2));  // depth 0 at column 0
    return out;
  }

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

  std::string arrayName() { return arrays_[pick(0, 2)]; }

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
  std::vector<std::string> arrays_{"wa", "wb", "wc"};
};

/// A generated program as a list of procedures, each a list of top-level
/// items, so that an edit script can change it item by item.
struct GenProgram {
  struct Item {
    std::vector<std::string> lines;
    /// A work-array nest privatizes wl(workElem) (0: not one); a read of
    /// that element after the nest makes the copy live out.
    int workElem = 0;
    bool writeSet = false;  ///< the write-set edit's own statement
  };
  struct Proc {
    std::string name;
    bool isMain = false;
    bool swapped = false;  ///< formals in (xb, xa, n) order instead of (xa, xb, n)
    std::vector<Item> items;
  };
  std::vector<Proc> procs;  ///< procs[0] is the main program; k calls only procs past k
  /// Comment lines before procedure k's header (the line-shift edit).
  std::vector<int> leadingComments;

  std::string render() const {
    std::ostringstream os;
    for (std::size_t k = 0; k < procs.size(); ++k) {
      const Proc& p = procs[k];
      for (int c = 0; c < leadingComments[k]; ++c) os << "c shifted\n";
      if (p.isMain) {
        os << "      program " << p.name << "\n"
           << "      real wa(200), wb(200), wl(200)\n"
           << "      integer n\n";
      } else {
        os << "      subroutine " << p.name << (p.swapped ? "(xb, xa, n)" : "(xa, xb, n)") << "\n"
           << "      real xa(200), xb(200)\n"
           << "      real wl(200)\n"
           << "      integer n\n";
      }
      os << "      integer m, kv\n"
         << "      real t, cut\n";
      for (const Item& item : p.items)
        for (const std::string& l : item.lines) os << "      " << l << "\n";
      os << "      end\n";
    }
    return os.str();
  }
};

/// Seeded generator of GenPrograms and of the edits the oracle replays.
class MultiProcGen {
 public:
  enum class Edit {
    InsertNest,
    DeleteNest,
    ModifyNest,
    WriteSet,      ///< add or drop a write of a formal element no nest writes
    ReadAfter,     ///< a read of a work nest's element right after the nest
    Reorder,       ///< swap two adjacent items
    ShiftLines,    ///< one more comment line before a procedure
    Continue,      ///< a CONTINUE item (changes no summary)
    SwapFormals,   ///< a subroutine's two array formals trade places
  };
  static constexpr int kEdits = 9;

  explicit MultiProcGen(unsigned seed) : rng_(seed), gen_(seed * 2654435761u + 1) {}

  GenProgram program() {
    GenProgram out;
    const int subs = pick(2, 4);
    for (int k = 0; k <= subs; ++k) {
      GenProgram::Proc p;
      p.isMain = k == 0;
      p.name = p.isMain ? "main" : "sub" + std::to_string(k);
      if (p.isMain) p.items.push_back({{"n = " + std::to_string(pick(3, 8))}});
      p.items.push_back({{"m = " + std::to_string(pick(2, 6))}});
      p.items.push_back({{"kv = " + std::to_string(pick(1, 4))}});
      p.items.push_back({{"cut = " + std::to_string(pick(2, 30)) + ".0"}});
      out.procs.push_back(std::move(p));
    }
    // Every subroutine gets a caller before it, so the call graph is a DAG
    // reaching all of them.
    for (int k = 1; k <= subs; ++k) addCall(out, pick(0, k - 1), k);
    for (int k = 0; k <= subs; ++k) {
      const int nests = pick(2, 4);
      for (int n = 0; n < nests; ++n) insertAt(out.procs[k], randomNest(out.procs[k]));
    }
    out.leadingComments.assign(out.procs.size(), 0);
    return out;
  }

  /// Applies one random edit; returns its kind and the procedure it edited.
  std::pair<Edit, std::size_t> edit(GenProgram& prog) {
    for (;;) {
      const Edit e = static_cast<Edit>(pick(0, kEdits - 1));
      const std::size_t k = static_cast<std::size_t>(pick(0, static_cast<int>(prog.procs.size()) - 1));
      if (apply(prog, e, k)) return {e, k};
    }
  }

  /// Applies edit `e` to procedure `k`; false when it does not apply there.
  bool apply(GenProgram& prog, Edit e, std::size_t k) {
    GenProgram::Proc& p = prog.procs[k];
    std::vector<std::size_t> nests;  ///< loop nests without a CALL
    for (std::size_t j = 0; j < p.items.size(); ++j) {
      const std::vector<std::string>& lines = p.items[j].lines;
      if (lines.front().rfind("do ", 0) == 0 &&
          std::none_of(lines.begin(), lines.end(),
                       [](const std::string& l) { return l.find("call ") != std::string::npos; }))
        nests.push_back(j);
    }
    switch (e) {
      case Edit::InsertNest:
        insertAt(p, randomNest(p));
        return true;
      case Edit::DeleteNest:
        if (nests.size() < 2) return false;
        p.items.erase(p.items.begin() + static_cast<long>(nests[pickIndex(nests.size())]));
        return true;
      case Edit::ModifyNest:
        if (nests.empty()) return false;
        p.items[nests[pickIndex(nests.size())]] = randomNest(p);
        return true;
      case Edit::WriteSet: {
        if (p.isMain) return false;
        for (std::size_t j = 0; j < p.items.size(); ++j)
          if (p.items[j].writeSet) {
            p.items.erase(p.items.begin() + static_cast<long>(j));
            return true;
          }
        GenProgram::Item item{{coin() ? "xa(199) = 1.0" : "xb(199) = t"}};
        item.writeSet = true;
        insertAt(p, std::move(item));
        return true;
      }
      case Edit::ReadAfter: {
        std::vector<std::size_t> work;
        for (std::size_t j = 0; j < p.items.size(); ++j)
          if (p.items[j].workElem > 0) work.push_back(j);
        if (work.empty()) return false;
        const std::size_t j = work[pickIndex(work.size())];
        const std::string elem = std::to_string(p.items[j].workElem);
        const std::string into = p.isMain ? "wb" : "xb";
        p.items.insert(p.items.begin() + static_cast<long>(j) + 1,
                       {{into + "(" + std::to_string(pick(100, 150)) + ") = wl(" + elem + ")"}});
        return true;
      }
      case Edit::Reorder: {
        if (p.items.size() < 2) return false;
        const std::size_t j = pickIndex(p.items.size() - 1);
        std::swap(p.items[j], p.items[j + 1]);
        return true;
      }
      case Edit::ShiftLines:
        ++prog.leadingComments[k];
        return true;
      case Edit::Continue:
        insertAt(p, {{"continue"}});
        return true;
      case Edit::SwapFormals:
        if (p.isMain) return false;
        p.swapped = !p.swapped;
        return true;
    }
    return false;
  }

 private:
  int pick(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng_); }
  bool coin() { return pick(0, 1) == 1; }
  std::size_t pickIndex(std::size_t n) { return static_cast<std::size_t>(pick(0, static_cast<int>(n) - 1)); }

  static std::vector<std::string> arraysOf(const GenProgram::Proc& p) {
    return p.isMain ? std::vector<std::string>{"wa", "wb", "wl"}
                    : std::vector<std::string>{"xa", "xb", "wl"};
  }

  /// A new item at a random position past the scalar initializations.
  void insertAt(GenProgram::Proc& p, GenProgram::Item item) {
    const std::size_t first = p.isMain ? 4 : 3;
    const std::size_t at = first + pickIndex(p.items.size() - first + 1);
    p.items.insert(p.items.begin() + static_cast<long>(at), std::move(item));
  }

  /// A ProgramGen nest or a work-array nest (write wl(c), then read it
  /// into the procedure's own arrays, every iteration).
  GenProgram::Item randomNest(const GenProgram::Proc& p) {
    const std::vector<std::string> arrays = arraysOf(p);
    if (pick(0, 2) == 0) {
      GenProgram::Item item;
      item.workElem = pick(1, 30);
      const std::string w = "wl(" + std::to_string(item.workElem) + ")";
      item.lines = {"do i = 1, n", "  " + w + " = " + arrays[pick(0, 1)] + "(i + " +
                                       std::to_string(pick(0, 20)) + ") * 2.0",
                    "  " + arrays[pick(0, 1)] + "(i + " + std::to_string(pick(40, 60)) +
                        ") = " + w + " + 1.0",
                    "enddo"};
      return item;
    }
    return {gen_.nest(arrays, coin() ? "n" : std::to_string(pick(2, 6)))};
  }

  /// Procedure `from` calls procedure `to`: at top level or from a loop.
  void addCall(GenProgram& prog, int from, int to) {
    GenProgram::Proc& caller = prog.procs[static_cast<std::size_t>(from)];
    const std::vector<std::string> arrays = arraysOf(caller);
    const std::string a = arrays[pick(0, 2)];
    std::string b = arrays[pick(0, 2)];
    if (b == a) b = arrays[(std::find(arrays.begin(), arrays.end(), a) - arrays.begin() + 1) % 3];
    const std::string callee = prog.procs[static_cast<std::size_t>(to)].name;
    if (coin())
      caller.items.push_back({{"call " + callee + "(" + a + ", " + b + ", n)"}});
    else
      caller.items.push_back(
          {{"do i = 1, n", "  call " + callee + "(" + a + ", " + b + ", i)", "enddo"}});
  }

  std::mt19937 rng_;
  ProgramGen gen_;
};

}  // namespace panorama
