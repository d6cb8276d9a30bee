// Shared plumbing for the reproduction benches: parse + analyze a corpus
// kernel under a given option set and fetch its evaluated loop.
#pragma once

#include <chrono>
#include <cstdio>

#include "panorama/analysis/driver.h"
#include "panorama/corpus/corpus.h"
#include "panorama/deptest/deptest.h"
#include "panorama/frontend/parser.h"
#include "panorama/interp/interpreter.h"
#include "panorama/machine/machine_model.h"

namespace panorama::bench {

struct LoadedKernel {
  ProgramAnalysis pa;  ///< the whole kernel, analyzed on one thread
  LoopAnalysis loop;   ///< the evaluated loop's entry of pa.loops
  const Stmt* loopStmt = nullptr;
  bool ok = false;
};

inline LoadedKernel loadAndAnalyze(const CorpusLoop& cl, AnalysisOptions options = {}) {
  DiagnosticEngine diags;
  auto p = parseProgram(cl.source, diags);
  if (!p) std::fprintf(stderr, "%s: parse failed\n%s\n", cl.id.c_str(), diags.str().c_str());
  ThreadPool pool(1);
  LoadedKernel k{p ? analyzeProgramUnit(std::move(*p), options, pool) : ProgramAnalysis{}, {}};
  if (p && !k.pa.ok)
    std::fprintf(stderr, "%s: analysis failed\n%s\n", cl.id.c_str(), k.pa.error.c_str());
  if (!k.pa.ok) return k;
  k.loopStmt = findOuterLoop(k.pa.program, cl.routine, cl.outerLoopIndex);
  for (const LoopAnalysis& la : k.pa.loops)
    if (k.loopStmt && la.loop == k.loopStmt) {
      k.loop = la;
      k.ok = true;
    }
  if (!k.ok) std::fprintf(stderr, "%s: loop not found\n", cl.id.c_str());
  return k;
}

inline bool arrayPrivatizable(const LoopAnalysis& la, const std::string& name) {
  for (const ArrayPrivatization& ap : la.arrays)
    if (ap.name == name) return ap.privatizable;
  return false;
}

inline bool allListedPrivatizable(const LoopAnalysis& la, const CorpusLoop& cl) {
  for (const std::string& name : cl.privatizable)
    if (!arrayPrivatizable(la, name)) return false;
  return true;
}

inline double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace panorama::bench
