#include "panorama/corpus/corpus.h"

namespace panorama {

namespace {

// `const char* const k<stem>` for every corpus/<stem>.f, generated at
// configure time by src/CMakeLists.txt: the .f files are the one copy of the
// kernels. Each literal is a newline followed by the file, so the kernel
// text starts on line 2 — the numbering every cited report line uses.
#include "corpus_sources.inc"

}  // namespace

const std::vector<CorpusLoop>& perfectCorpus() {
  static const std::vector<CorpusLoop> corpus = {
      // Kalman-filter style working vectors filled and consumed through
      // subroutine calls with constant extents. Interprocedural analysis
      // alone privatizes them (Table 1: T3 only).
      {"TRACK nlfilt/300", "TRACK", "nlfilt", 0,
       {"p1", "p2", "p", "pp1", "pp2", "pp", "xsd"}, {},
       false, false, true, 5.2, 40.0, 0.70, kTRACK_nlfilt_300},
      // The hard one. Work vectors with symbolic extents (T1) filled through
      // calls (T3), one of them written/consumed under matching IF
      // conditions (T2), and RL exhibiting the Figure 1(a) pattern that
      // defeats the base analysis (Table 2 status "no").
      {"MDG interf/1000", "MDG", "interf", 0,
       {"rs", "ff", "gg", "xl", "yl", "zl"}, {"rl"},
       true, true, true, 6.0, 90.0, 0.81, kMDG_interf_1000},
      // Constant-extent neighbor vectors through calls (T3).
      {"MDG poteng/2000", "MDG", "poteng", 0,
       {"rs", "rl", "xl", "yl", "zl"}, {},
       false, false, true, 5.2, 8.0, 0.66, kMDG_poteng_2000},
      // Intraprocedural work vectors with symbolic extents (T1).
      {"TRFD olda/100", "TRFD", "olda1", 0,
       {"xrsiq", "xij"}, {},
       true, false, false, 16.4, 69.0, 2.55, kTRFD_olda_100},
      // Same flavor, second transformation stage.
      {"TRFD olda/300", "TRFD", "olda3", 0,
       {"xijks", "xkl"}, {},
       true, false, false, 12.3, 29.0, 2.05, kTRFD_olda_300},
      // OCEAN ocean/270, /480, /500 — the Figure 1(c) shape: CWORK written
      // and consumed by callees whose early-return guards match (T1+T2+T3).
      {"OCEAN ocean/270", "OCEAN", "ocean270", 0,
       {"cwork"}, {},
       true, true, true, 8.0, 3.0, 0.97, kOCEAN_ocean_270},
      {"OCEAN ocean/480", "OCEAN", "ocean480", 0,
       {"cwork", "cwork2"}, {},
       true, true, true, 6.1, 4.0, 0.82, kOCEAN_ocean_480},
      {"OCEAN ocean/500", "OCEAN", "ocean500", 0,
       {"cwork"}, {},
       true, true, true, 6.5, 3.0, 0.93, kOCEAN_ocean_500},
      // The Figure 1(b) loop verbatim: WORK(jlow:jup) plus the
      // conditionally-written WORK(jmax) whose condition is loop-invariant
      // (T1+T2, intraprocedural).
      {"ARC2D filerx/15", "ARC2D", "filerx", 0,
       {"work"}, {},
       true, true, false, 4.0, 7.0, 0.52, kARC2D_filerx_15},
      // Plain symbolic-extent work vector (T1 only).
      {"ARC2D filery/39", "ARC2D", "filery", 0,
       {"work"}, {},
       true, false, false, 4.0, 7.0, 0.58, kARC2D_filery_39},
      // ARC2D stepfx/300 and stepfy/420 — symbolic-extent work vector filled
      // by a callee (T1+T3, no conditions).
      {"ARC2D stepfx/300", "ARC2D", "stepfx", 0,
       {"work"}, {},
       true, false, true, 3.0, 21.0, 0.47, kARC2D_stepfx_300},
      {"ARC2D stepfy/420", "ARC2D", "stepfy", 0,
       {"work"}, {},
       true, false, true, 3.0, 16.0, 0.43, kARC2D_stepfy_420},
  };
  return corpus;
}

const char* fig1aSource() { return kfig1a; }
const char* fig1bSource() { return kfig1b; }
const char* fig1cSource() { return kfig1c; }

const Stmt* findOuterLoop(const Program& program, std::string_view routine, int index) {
  const Procedure* proc = program.findProcedure(routine);
  if (!proc) return nullptr;
  int seen = 0;
  for (const StmtPtr& s : proc->body)
    if (s->kind == Stmt::Kind::Do && seen++ == index) return s.get();
  return nullptr;
}

}  // namespace panorama
