// The benchmark's inputs, all derived from the workload seed: the program
// texts, the stationary edit variants of each program, and the seeded op
// scripts of the three workloads. The library only ever sees the generated
// texts.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's only random source.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t s_;
};

/// One program and the positions its stationary edits may touch.
struct ProgramText {
  std::string name;
  std::string base;
  std::vector<int> loopEditLines;     ///< DO lines a loop_edit inserts after
  std::vector<int> procEditLines;     ///< procedure END lines a proc_edit inserts before
  std::vector<int> commentLines;      ///< lines a comment_shift inserts before
};

/// The corpus programs: the 12 Perfect kernels (perfectCorpus() order)
/// then Figure 1 a, b and c. Edit positions are fixed per program.
inline constexpr std::size_t kCorpusPrograms = 15;
std::vector<ProgramText> corpusPrograms();

/// The generated program: four subroutines of five independent DO nests
/// each, linked by CALLs, about two hundred lines. Its shape is fixed; the
/// seed picks its constants.
ProgramText generatedProgram(std::uint64_t seed);

enum class EditKind : std::uint32_t {
  LoopEdit,      ///< a statement inserted inside one DO nest
  ProcEdit,      ///< a statement inserted before a procedure's END
  CommentShift,  ///< a comment line inserted
  Revert,        ///< the base text
  Resubmit,      ///< byte-identical to the session's previous submit
  Restart,       ///< snapshot save, restore into a fresh session, submit base
};
inline constexpr std::size_t kEditKinds = 6;
const char* editKindName(EditKind k);

/// The base text with at most one edit applied at `line` (ignored for the
/// unedited kinds).
std::string applyEdit(const std::string& base, EditKind kind, int line);

/// Every distinct text the run submits, interned so verification analyzes
/// each once.
class TextTable {
 public:
  std::uint32_t intern(std::uint32_t program, std::string text);
  std::size_t size() const { return texts_.size(); }
  const std::string& text(std::uint32_t id) const { return texts_[id]; }
  std::uint32_t program(std::uint32_t id) const { return programs_[id]; }

 private:
  std::vector<std::string> texts_;
  std::vector<std::uint32_t> programs_;
  std::unordered_map<std::string, std::uint32_t> index_;
};

/// One scripted op of a workload.
struct ScriptOp {
  std::uint32_t program = 0;
  std::uint32_t kind = 0;    ///< EditKind for edit_warm, DaemonOp for daemon_mix
  std::uint32_t textId = 0;  ///< unused by reads
};

/// corpus_cold: `passes` seeded permutations of the corpus programs;
/// text ids equal program indices.
std::vector<ScriptOp> corpusColdScript(std::uint64_t seed, std::size_t passes);

/// edit_warm: rounds holding one op of every edit kind for every program,
/// each round shuffled by the seed. No measured traffic says how often each
/// kind occurs, so every kind counts the same. Resubmit reuses the session's
/// previous text id; revert and restart submit the base.
std::vector<ScriptOp> editWarmScript(const std::vector<ProgramText>& programs, TextTable& texts,
                                     std::uint64_t seed, std::size_t rounds);

enum class DaemonOp : std::uint32_t {
  SubmitNamed,  ///< an edited variant to the client's own named session
  SubmitCold,   ///< reconnect, then submit on the fresh connection-local session
  Resubmit,     ///< byte-identical resubmit to a named session
  Status,
  Metrics,
  Tail,
};
const char* daemonOpName(DaemonOp k);

/// daemon_mix: blocks of 33 ops — 23 named submits, 4 cold submits,
/// 1 resubmit, 2 status, 1 metrics, 2 tail — shuffled per block.
inline constexpr std::size_t kDaemonBlock = 33;
/// The clients meet at a barrier every segment (two blocks).
inline constexpr std::size_t kDaemonSegment = 2 * kDaemonBlock;
std::vector<ScriptOp> daemonClientScript(const std::vector<ProgramText>& programs,
                                         TextTable& texts, std::uint64_t seed,
                                         std::size_t blocks);
/// Another client's script with the same ops as `lead` in every segment,
/// in its own seeded order (resubmits repeat this client's own previous
/// named submit), so both clients carry equal work between barriers.
std::vector<ScriptOp> daemonPartnerScript(const std::vector<ScriptOp>& lead,
                                          const std::vector<ProgramText>& programs,
                                          TextTable& texts, std::uint64_t seed);

/// The base texts (ids 0..programs-1, interned first by every workload).
void internBases(const std::vector<ProgramText>& programs, TextTable& texts);

}  // namespace perfbench
