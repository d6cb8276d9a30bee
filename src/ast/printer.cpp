#include <sstream>

#include "panorama/ast/ast.h"

namespace panorama {

namespace {

const char* binOpText(BinOp op) {
  switch (op) {
    case BinOp::Add: return " + ";
    case BinOp::Sub: return " - ";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Pow: return "**";
    case BinOp::Lt: return " .lt. ";
    case BinOp::Le: return " .le. ";
    case BinOp::Gt: return " .gt. ";
    case BinOp::Ge: return " .ge. ";
    case BinOp::Eq: return " .eq. ";
    case BinOp::Ne: return " .ne. ";
    case BinOp::And: return " .and. ";
    case BinOp::Or: return " .or. ";
  }
  return "?";
}

void printExpr(std::ostream& os, const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::IntLit: os << e.intValue; return;
    case Expr::Kind::RealLit: os << e.realValue; return;
    case Expr::Kind::LogicalLit: os << (e.logicalValue ? ".true." : ".false."); return;
    case Expr::Kind::VarRef: os << e.name; return;
    case Expr::Kind::ArrayRef:
    case Expr::Kind::Intrinsic: {
      os << e.name << '(';
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i) os << ", ";
        printExpr(os, *e.args[i]);
      }
      os << ')';
      return;
    }
    case Expr::Kind::Unary:
      os << (e.unOp == UnOp::Neg ? "(-" : "(.not. ");
      printExpr(os, *e.args[0]);
      os << ')';
      return;
    case Expr::Kind::Binary:
      os << '(';
      printExpr(os, *e.args[0]);
      os << binOpText(e.binOp);
      printExpr(os, *e.args[1]);
      os << ')';
      return;
  }
}

/// Fixed-form Fortran, one statement per line from column 7, two more
/// spaces per nesting level; labels lead the statement text.
class Printer {
 public:
  Printer(const std::map<const Stmt*, DoAnnotation>& annotations, std::string& out)
      : annotations_(annotations), out_(out) {}

  void procedure(const Procedure& proc) {
    if (proc.isMain) {
      line(0, "program " + proc.name);
    } else {
      std::string head = "subroutine " + proc.name;
      if (!proc.params.empty()) {
        head += "(";
        appendJoined(head, proc.params);
        head += ")";
      }
      line(0, head);
    }
    declarations(proc);
    for (const StmtPtr& s : proc.body) stmt(*s, 0);
    line(0, "end");
    out_ += "\n";
  }

 private:
  static void appendJoined(std::string& out, const std::vector<std::string>& names) {
    for (std::size_t k = 0; k < names.size(); ++k) {
      if (k) out += ", ";
      out += names[k];
    }
  }

  void line(int indent, const std::string& text) {
    out_ += "      ";
    out_.append(static_cast<std::size_t>(indent) * 2, ' ');
    out_ += text;
    out_ += "\n";
  }

  void declarations(const Procedure& proc) {
    auto typeName = [](BaseType t) {
      switch (t) {
        case BaseType::Integer: return "integer";
        case BaseType::Real: return "real";
        case BaseType::Logical: return "logical";
      }
      return "real";
    };
    for (const VarDecl& d : proc.decls) {
      std::string text = std::string(typeName(d.type)) + " " + d.name;
      if (d.isArray()) {
        text += "(";
        for (std::size_t k = 0; k < d.dims.size(); ++k) {
          if (k) text += ", ";
          if (d.dims[k].lo) text += toString(*d.dims[k].lo) + ":";
          text += d.dims[k].up ? toString(*d.dims[k].up) : "*";
        }
        text += ")";
      }
      line(0, text);
    }
    for (const ParamConst& pc : proc.paramConsts)
      line(0, "parameter (" + pc.name + " = " + toString(*pc.value) + ")");
    for (const CommonBlock& blk : proc.commons) {
      std::string text = "common ";
      if (!blk.name.empty()) text += "/" + blk.name + "/ ";
      appendJoined(text, blk.vars);
      line(0, text);
    }
  }

  void stmt(const Stmt& s, int indent) {
    std::string label = s.label ? std::to_string(s.label) + " " : "";
    switch (s.kind) {
      case Stmt::Kind::Assign:
        line(indent, label + toString(*s.lhs) + " = " + toString(*s.rhs));
        return;
      case Stmt::Kind::If:
        line(indent, label + "if (" + toString(*s.cond) + ") then");
        for (const StmtPtr& c : s.thenBody) stmt(*c, indent + 1);
        if (!s.elseBody.empty()) {
          line(indent, "else");
          for (const StmtPtr& c : s.elseBody) stmt(*c, indent + 1);
        }
        line(indent, "endif");
        return;
      case Stmt::Kind::Do: {
        auto it = annotations_.find(&s);
        if (it != annotations_.end()) out_ += it->second.open + "\n";
        std::string head = label + "do " + s.doVar + " = " + toString(*s.lo) + ", " +
                           toString(*s.hi);
        if (s.step) head += ", " + toString(*s.step);
        line(indent, head);
        for (const StmtPtr& c : s.body) stmt(*c, indent + 1);
        line(indent, "enddo");
        if (it != annotations_.end()) out_ += it->second.close + "\n";
        return;
      }
      case Stmt::Kind::Goto:
        line(indent, label + "goto " + std::to_string(s.gotoLabel));
        return;
      case Stmt::Kind::Continue:
        line(indent, label + "continue");
        return;
      case Stmt::Kind::Call: {
        std::string text = label + "call " + s.callee;
        if (!s.args.empty()) {
          text += "(";
          for (std::size_t k = 0; k < s.args.size(); ++k) {
            if (k) text += ", ";
            text += toString(*s.args[k]);
          }
          text += ")";
        }
        line(indent, text);
        return;
      }
      case Stmt::Kind::Return:
        line(indent, label + "return");
        return;
      case Stmt::Kind::Stop:
        line(indent, label + "stop");
        return;
    }
  }

  const std::map<const Stmt*, DoAnnotation>& annotations_;
  std::string& out_;
};

}  // namespace

std::string toString(const Expr& e) {
  std::ostringstream os;
  printExpr(os, e);
  return os.str();
}

std::string toString(const Procedure& p) {
  const std::map<const Stmt*, DoAnnotation> none;
  std::string out;
  Printer(none, out).procedure(p);
  return out;
}

std::string toString(const Program& p, const std::map<const Stmt*, DoAnnotation>& annotations) {
  std::string out;
  Printer printer(annotations, out);
  for (const Procedure& proc : p.procedures) printer.procedure(proc);
  return out;
}

}  // namespace panorama
