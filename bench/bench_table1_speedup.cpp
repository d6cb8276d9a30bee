// Reproduces the speedup column of Table 1 on the simulated 8-processor
// machine (see machine_model.h and DESIGN.md for the FX/8 substitution):
// each kernel is interpreted with per-iteration operation tracing, the
// privatized-parallel execution is costed by the machine model, and the
// scrambled-order privatized run is checked against the serial run as a
// semantic witness.
#include "bench_util.h"
#include "harness.h"

using namespace panorama;
using namespace panorama::bench;

namespace {

BenchResult run() {
  std::printf("Table 1 (loop speedups) — Alliant FX/8 measurements vs simulated 8-CPU model\n");
  std::printf("(absolute numbers are not comparable; who speeds up, and roughly how much, is)\n\n");
  std::printf("%-18s | %%seq | paper | simulated | iterations | witness\n", "loop");
  std::printf("-------------------+------+-------+-----------+------------+--------\n");

  BenchResult result;
  result.addConfig("corpus", "perfect (Table 1/2 kernels)");
  result.addConfig("machine", "simulated 8-CPU model (FX/8 substitution)");
  bool allOk = true;
  int witnessed = 0;
  int loops = 0;
  double speedupSum = 0;
  for (const CorpusLoop& cl : perfectCorpus()) {
    LoadedKernel k = loadAndAnalyze(cl, {});
    if (!k.ok) {
      allOk = false;
      continue;
    }

    // Trace per-iteration costs.
    Interpreter interp(k.pa.program, k.pa.sema);
    Interpreter::Config cfg;
    cfg.traceLoop = k.loopStmt;
    auto res = interp.run(cfg);
    if (!res.ok) {
      std::printf("%-18s | interpreter failed: %s\n", cl.id.c_str(), res.error.c_str());
      allOk = false;
      continue;
    }

    MachineConfig mc;
    mc.processors = 8;
    mc.vectorFactor = cl.vectorFactor;
    SpeedupEstimate est = estimateSpeedup(interp.trace().iterOps, mc);

    // Witness: scrambled privatized execution must match serially-computed
    // memory on live-out arrays.
    std::vector<ArrayId> privatized;
    std::set<ArrayId> dead;
    for (const ArrayPrivatization& ap : k.loop.arrays) {
      bool groundTruth = ap.privatizable ||
                         std::find(cl.notPrivatizable.begin(), cl.notPrivatizable.end(),
                                   ap.name) != cl.notPrivatizable.end();
      if (!groundTruth) continue;
      privatized.push_back(ap.array);
      if (!ap.needsCopyOut) dead.insert(ap.array);
    }
    Interpreter scrambled(k.pa.program, k.pa.sema);
    Interpreter::Config scfg;
    scfg.privatizeLoop = k.loopStmt;
    scfg.privatizedArrays = privatized;
    scfg.scrambleSeed = 1234;
    auto sres = scrambled.run(scfg);
    bool witness = sres.ok;
    if (witness) {
      for (const auto& [id, store] : interp.arrays()) {
        if (dead.count(id)) continue;
        auto it = scrambled.arrays().find(id);
        if (it == scrambled.arrays().end() ? !store.empty() : it->second != store)
          witness = false;
      }
    }
    allOk = allOk && witness;
    witnessed += witness;
    ++loops;
    speedupSum += est.speedup;

    std::printf("%-18s | %4.0f%% |  %4.1f |   %6.1f  |   %6zu   | %s\n", cl.id.c_str(),
                cl.paperSeqPercent, cl.paperSpeedup, est.speedup,
                interp.trace().iterOps.size(), witness ? "ok" : "FAILED");
  }
  std::printf("\nwitness = privatized scrambled-order execution matches serial memory\n");

  result.add("loops", loops, Direction::Exact);
  result.add("witnessed_loops", witnessed, Direction::Exact);
  // The machine model is deterministic, so the mean simulated speedup is
  // exact too — a change means the model or the analysis moved.
  result.add("mean_simulated_speedup", loops ? speedupSum / loops : 0.0, Direction::Exact, 0.0,
             "x");
  if (!allOk) result.fail("a privatized scrambled-order run diverged from serial memory");
  return result;
}

const Registration reg{{"table1_speedup", /*repetitions=*/1, /*warmup=*/0, run}};

}  // namespace
