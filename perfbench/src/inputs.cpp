#include "inputs.h"

#include <algorithm>
#include <cctype>

#include "panorama/corpus/corpus.h"

namespace perfbench {

namespace {

constexpr const char* kInsertedStatement = "      continue";
constexpr const char* kInsertedComment = "c     perfbench: shifted line";

/// Lines scanned for edit positions: text split on '\n' (the final,
/// newline-terminated line included, the empty remainder after it not).
std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::string trimmedLower(const std::string& line) {
  std::size_t b = line.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = line.find_last_not_of(" \t\r");
  std::string out = line.substr(b, e - b + 1);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

/// At most `limit` of `lines`, evenly spaced and always the same ones, so
/// every seed edits the same positions (the seed only orders the ops).
std::vector<int> evenlySpaced(const std::vector<int>& lines, std::size_t limit) {
  if (lines.size() <= limit) return lines;
  std::vector<int> out;
  for (std::size_t k = 0; k < limit; ++k) out.push_back(lines[(2 * k + 1) * lines.size() / (2 * limit)]);
  return out;
}

constexpr std::size_t kMaxLoopEdits = 8;
constexpr std::size_t kMaxProcEdits = 6;
constexpr std::size_t kCommentPositions = 4;

ProgramText describe(std::string name, std::string base) {
  ProgramText p;
  p.name = std::move(name);
  p.base = std::move(base);
  const std::vector<std::string> lines = splitLines(p.base);
  std::vector<int> doLines;
  std::vector<int> endLines;
  std::vector<int> commentable;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string t = trimmedLower(lines[i]);
    if (t.rfind("do ", 0) == 0 && t.find('=') != std::string::npos)
      doLines.push_back(static_cast<int>(i));
    if (t == "end") endLines.push_back(static_cast<int>(i));
    commentable.push_back(static_cast<int>(i));
  }
  p.loopEditLines = evenlySpaced(doLines, kMaxLoopEdits);
  p.procEditLines = evenlySpaced(endLines, kMaxProcEdits);
  p.commentLines = evenlySpaced(commentable, kCommentPositions);
  return p;
}

std::string corpusName(const std::string& id) {
  std::string out;
  for (char c : id) out += (c == ' ' || c == '/') ? '_' : c;
  return out;
}

/// One DO nest of the generated program; `label` is unique per nest.
std::string generatedNest(int kind, int label, const std::string& c) {
  const std::string l0 = std::to_string(label);
  const std::string l1 = std::to_string(label + 1);
  const std::string l2 = std::to_string(label + 2);
  switch (kind) {
    case 0:  // privatizable work array
      return "      do " + l0 + " j = 1, n\n" +
             "        do " + l1 + " i = 1, n\n" +
             "          w(i) = a(i, j) * " + c + "\n" +
             l1 + "     continue\n" +
             "        do " + l2 + " i = 1, n\n" +
             "          b(i, j) = w(i) + " + c + "\n" +
             l2 + "     continue\n" +
             l0 + "   continue\n";
    case 1:  // parallel as written
      return "      do " + l0 + " j = 1, n\n" +
             "        do " + l1 + " i = 1, n\n" +
             "          c(i, j) = b(i, j) + a(i, j) * " + c + "\n" +
             l1 + "     continue\n" +
             l0 + "   continue\n";
    case 2:  // carried flow dependence
      return "      do " + l0 + " j = 2, n\n" +
             "        do " + l1 + " i = 1, n\n" +
             "          a(i, j) = a(i, j - 1) + c(i, j) * " + c + "\n" +
             l1 + "     continue\n" +
             l0 + "   continue\n";
    case 3:  // work array read under an IF guard
      return "      do " + l0 + " j = 1, n\n" +
             "        do " + l1 + " i = 1, m\n" +
             "          w(i) = c(i, j) * " + c + "\n" +
             l1 + "     continue\n" +
             "        if (m .gt. 2) then\n" +
             "          do " + l2 + " i = 1, m\n" +
             "            b(i, j) = w(i) - " + c + "\n" +
             l2 + "       continue\n" +
             "        endif\n" +
             l0 + "   continue\n";
    default:  // iteration-private scalar
      return "      do " + l0 + " j = 1, n\n" +
             "        do " + l1 + " i = 1, n\n" +
             "          t = a(i, j) + " + c + "\n" +
             "          c(i, j) = t * t\n" +
             l1 + "     continue\n" +
             l0 + "   continue\n";
  }
}

constexpr int kGeneratedSubroutines = 4;
constexpr int kNestKinds = 5;

}  // namespace

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<ProgramText> corpusPrograms() {
  std::vector<ProgramText> out;
  for (const panorama::CorpusLoop& cl : panorama::perfectCorpus())
    out.push_back(describe(corpusName(cl.id), cl.source));
  out.push_back(describe("fig1a", panorama::fig1aSource()));
  out.push_back(describe("fig1b", panorama::fig1bSource()));
  out.push_back(describe("fig1c", panorama::fig1cSource()));
  return out;
}

ProgramText generatedProgram(std::uint64_t seed) {
  Rng rng(seed ^ 0x6E4E5ull);
  static const char* kConstants[] = {"2.0", "3.0", "0.5", "1.5", "4.0"};
  const std::string decls =
      "      real a(64, 64), b(64, 64), c(64, 64)\n"
      "      common /g/ a, b, c\n";
  std::string src = "      program gen\n      integer n, m\n" + decls +
                    "      n = 40\n      m = 16\n";
  for (int s = 1; s <= kGeneratedSubroutines; ++s)
    src += "      call s" + std::to_string(s) + "(n, m)\n";
  src += "      end\n";
  for (int s = 1; s <= kGeneratedSubroutines; ++s) {
    src += "\n      subroutine s" + std::to_string(s) + "(n, m)\n      integer n, m\n" + decls +
           "      real w(64), t\n      integer i, j, k\n";
    // Nest order is fixed (rotated per subroutine): an edit's dirty set
    // depends on the edited nest's position, and that must not vary by seed.
    for (int nest = 0; nest < kNestKinds; ++nest)
      src += generatedNest((nest + s) % kNestKinds, 1000 * s + 10 * (nest + 1),
                           kConstants[rng.below(std::size(kConstants))]);
    // s3 -> s1, s4 -> s2: an edit to a callee dirties its caller.
    if (s > 2) src += "      call s" + std::to_string(s - 2) + "(n, m)\n";
    src += "      end\n";
  }
  return describe("generated", src);
}

const char* editKindName(EditKind k) {
  switch (k) {
    case EditKind::LoopEdit: return "loop_edit";
    case EditKind::ProcEdit: return "proc_edit";
    case EditKind::CommentShift: return "comment_shift";
    case EditKind::Revert: return "revert";
    case EditKind::Resubmit: return "resubmit";
    case EditKind::Restart: return "restart";
  }
  return "?";
}

const char* daemonOpName(DaemonOp k) {
  switch (k) {
    case DaemonOp::SubmitNamed: return "submit_named";
    case DaemonOp::SubmitCold: return "submit_cold";
    case DaemonOp::Resubmit: return "resubmit";
    case DaemonOp::Status: return "status";
    case DaemonOp::Metrics: return "metrics";
    case DaemonOp::Tail: return "tail";
  }
  return "?";
}

std::string applyEdit(const std::string& base, EditKind kind, int line) {
  std::string inserted;
  int at = line;
  switch (kind) {
    case EditKind::LoopEdit:
      inserted = kInsertedStatement;
      at = line + 1;
      break;
    case EditKind::ProcEdit: inserted = kInsertedStatement; break;
    case EditKind::CommentShift: inserted = kInsertedComment; break;
    default: return base;
  }
  std::size_t offset = 0;
  for (int i = 0; i < at && offset < base.size(); ++i) {
    const std::size_t nl = base.find('\n', offset);
    offset = nl == std::string::npos ? base.size() : nl + 1;
  }
  return base.substr(0, offset) + inserted + "\n" + base.substr(offset);
}

std::uint32_t TextTable::intern(std::uint32_t program, std::string text) {
  // Texts of different programs never coincide, so the text alone is the key.
  auto [it, inserted] = index_.emplace(text, static_cast<std::uint32_t>(texts_.size()));
  if (!inserted) return it->second;
  texts_.push_back(std::move(text));
  programs_.push_back(program);
  return static_cast<std::uint32_t>(texts_.size() - 1);
}

void internBases(const std::vector<ProgramText>& programs, TextTable& texts) {
  for (std::size_t p = 0; p < programs.size(); ++p)
    texts.intern(static_cast<std::uint32_t>(p), programs[p].base);
}

std::vector<ScriptOp> corpusColdScript(std::uint64_t seed, std::size_t passes) {
  Rng rng(seed ^ 0xC01Dull);
  std::vector<ScriptOp> ops;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    std::vector<std::uint32_t> order;
    for (std::uint32_t p = 0; p < kCorpusPrograms; ++p) order.push_back(p);
    rng.shuffle(order);
    for (std::uint32_t p : order) ops.push_back(ScriptOp{p, 0, p});
  }
  return ops;
}

namespace {

/// Cycles through a fixed set in seeded order: every member is drawn once
/// before any is drawn again, so each seed uses every member equally often.
class Deck {
 public:
  explicit Deck(std::vector<int> members) : members_(std::move(members)) {}
  int draw(Rng& rng) {
    if (next_ == order_.size()) {
      order_ = members_;
      rng.shuffle(order_);
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  std::vector<int> members_;
  std::vector<int> order_;
  std::size_t next_ = 0;
};

/// The edit positions of one program, each kind cycled through its own deck.
struct EditDecks {
  explicit EditDecks(const ProgramText& p)
      : loop(p.loopEditLines), proc(p.procEditLines), comment(p.commentLines) {}
  Deck loop, proc, comment;
};

/// The text id of `kind` applied to program `p` at its deck's next position.
std::uint32_t editedVariant(const std::vector<ProgramText>& programs, TextTable& texts,
                            std::uint32_t p, EditKind kind, EditDecks& decks, Rng& rng) {
  int line = -1;
  if (kind == EditKind::LoopEdit) line = decks.loop.draw(rng);
  if (kind == EditKind::ProcEdit) line = decks.proc.draw(rng);
  if (kind == EditKind::CommentShift) line = decks.comment.draw(rng);
  return texts.intern(p, applyEdit(programs[p].base, kind, line));
}

std::vector<int> iota(std::size_t n) {
  std::vector<int> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<int>(i);
  return v;
}

}  // namespace

std::vector<ScriptOp> editWarmScript(const std::vector<ProgramText>& programs, TextTable& texts,
                                     std::uint64_t seed, std::size_t rounds) {
  Rng rng(seed ^ 0xED17ull);
  std::vector<EditDecks> decks(programs.begin(), programs.end());
  std::vector<std::uint32_t> last(programs.size());
  for (std::uint32_t p = 0; p < programs.size(); ++p) last[p] = texts.intern(p, programs[p].base);
  std::vector<ScriptOp> ops;
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<ScriptOp> round;
    for (std::uint32_t p = 0; p < programs.size(); ++p)
      for (std::uint32_t kind = 0; kind < kEditKinds; ++kind) round.push_back(ScriptOp{p, kind, 0});
    rng.shuffle(round);
    for (ScriptOp& op : round) {
      const EditKind kind = static_cast<EditKind>(op.kind);
      if (kind == EditKind::Resubmit)
        op.textId = last[op.program];
      else
        op.textId = editedVariant(programs, texts, op.program, kind, decks[op.program], rng);
      last[op.program] = op.textId;
      ops.push_back(op);
    }
  }
  return ops;
}

std::vector<ScriptOp> daemonClientScript(const std::vector<ProgramText>& programs,
                                         TextTable& texts, std::uint64_t seed,
                                         std::size_t blocks) {
  static const std::pair<DaemonOp, int> kMix[] = {
      {DaemonOp::SubmitNamed, 23}, {DaemonOp::SubmitCold, 4}, {DaemonOp::Resubmit, 1},
      {DaemonOp::Status, 2},       {DaemonOp::Metrics, 1},    {DaemonOp::Tail, 2}};
  Rng rng(seed);
  std::vector<EditDecks> decks(programs.begin(), programs.end());
  const std::vector<int> namedEdits = {
      static_cast<int>(EditKind::LoopEdit), static_cast<int>(EditKind::ProcEdit),
      static_cast<int>(EditKind::CommentShift), static_cast<int>(EditKind::Revert)};
  std::vector<Deck> editDecks(programs.size(), Deck(namedEdits));
  Deck namedPrograms(iota(programs.size())), coldPrograms(iota(programs.size()));
  std::vector<std::uint32_t> last(programs.size());
  for (std::uint32_t p = 0; p < programs.size(); ++p) last[p] = texts.intern(p, programs[p].base);
  std::uint32_t lastNamed = 0;
  std::vector<ScriptOp> ops;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<ScriptOp> block;
    for (const auto& [kind, count] : kMix)
      for (int c = 0; c < count; ++c) block.push_back(ScriptOp{0, static_cast<std::uint32_t>(kind), 0});
    rng.shuffle(block);
    for (ScriptOp& op : block) {
      switch (static_cast<DaemonOp>(op.kind)) {
        case DaemonOp::SubmitNamed: {
          op.program = static_cast<std::uint32_t>(namedPrograms.draw(rng));
          const auto edit = static_cast<EditKind>(editDecks[op.program].draw(rng));
          op.textId = editedVariant(programs, texts, op.program, edit, decks[op.program], rng);
          last[op.program] = op.textId;
          lastNamed = op.program;
          break;
        }
        case DaemonOp::Resubmit:
          op.program = lastNamed;
          op.textId = last[lastNamed];
          break;
        case DaemonOp::SubmitCold:
          op.program = static_cast<std::uint32_t>(coldPrograms.draw(rng));
          op.textId = texts.intern(op.program, programs[op.program].base);
          break;
        default: break;
      }
      ops.push_back(op);
    }
  }
  return ops;
}

std::vector<ScriptOp> daemonPartnerScript(const std::vector<ScriptOp>& lead,
                                          const std::vector<ProgramText>& programs,
                                          TextTable& texts, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> last(programs.size());
  for (std::uint32_t p = 0; p < programs.size(); ++p) last[p] = texts.intern(p, programs[p].base);
  std::uint32_t lastNamed = 0;
  std::vector<ScriptOp> ops;
  for (std::size_t start = 0; start < lead.size(); start += kDaemonSegment) {
    std::vector<ScriptOp> segment(lead.begin() + static_cast<std::ptrdiff_t>(start),
                                  lead.begin() + static_cast<std::ptrdiff_t>(
                                                     std::min(lead.size(), start + kDaemonSegment)));
    rng.shuffle(segment);
    for (ScriptOp& op : segment) {
      if (static_cast<DaemonOp>(op.kind) == DaemonOp::SubmitNamed) {
        last[op.program] = op.textId;
        lastNamed = op.program;
      } else if (static_cast<DaemonOp>(op.kind) == DaemonOp::Resubmit) {
        op.program = lastNamed;
        op.textId = last[lastNamed];
      }
      ops.push_back(op);
    }
  }
  return ops;
}

}  // namespace perfbench
