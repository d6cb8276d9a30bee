// perfbench: runs one seeded workload through the library's public entry
// points, verifies every op's reports against a cold analysis, and prints
// the end-to-end metrics (--trace 0) or the per-layer table (--trace 1).
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// See README.md for the workloads, the metrics and the normalization.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>

#include "bench.h"
#include "panorama/analysis/driver.h"
#include "panorama/corpus/corpus.h"

using namespace perfbench;

namespace {

/// The seed the benchmark runs when none is given, and the held-out seed
/// reserved for validating a later claim on inputs it was not tuned on.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 7919;
/// Setup is measured this many times per run (each in a fresh process,
/// the last one being the measured pass's own) and reported as the median.
constexpr int kSetupSamples = 5;
constexpr int kDaemonMinCores = 4;

struct Args {
  Workload workload = Workload::CorpusCold;
  std::string workloadName;
  std::uint64_t seed = kDefaultSeed;
  int seconds = 12;
  bool trace = false;
  std::string workDir = ".bench_build/perfbench-work";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload corpus_cold|edit_warm|daemon_mix "
               "[--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]\n",
               msg);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workloadName = value;
      haveWorkload = true;
      if (value == "corpus_cold") a.workload = Workload::CorpusCold;
      else if (value == "edit_warm") a.workload = Workload::EditWarm;
      else if (value == "daemon_mix") a.workload = Workload::DaemonMix;
      else usage(("unknown workload " + value).c_str());
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end) usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      const long s = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end || s < 1 || s > 600) usage("--seconds takes 1..600");
      a.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--work-dir") {
      a.workDir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!haveWorkload) usage("--workload is required");
  return a;
}

PassResult runPass(const Args& a, const PassConfig& cfg) {
  ChildResult child = runInChild([&] {
    PassResult r;
    switch (a.workload) {
      case Workload::CorpusCold: r = runCorpusCold(a.seed, a.seconds, cfg); break;
      case Workload::EditWarm: r = runEditWarm(a.seed, a.seconds, cfg); break;
      case Workload::DaemonMix: r = runDaemonMix(a.seed, a.seconds, cfg); break;
    }
    return encodePass(r);
  });
  if (!child.ok) {
    PassResult r;
    r.ok = false;
    r.error = "pass process: " + child.error;
    return r;
  }
  return decodePass(child.payload);
}

// ----- verification (after the timed phase, outside all timings) -----

/// The daemon's submit reply layout (store/daemon.cpp) around the reports.
std::string daemonReport(const std::string& name, std::size_t loops, const std::string& body) {
  return name + ": " + std::to_string(loops) + " loop(s)\n\n" + body;
}

bool arrayPrivatizable(const panorama::LoopAnalysis& la, const std::string& name) {
  for (const panorama::ArrayPrivatization& ap : la.arrays)
    if (ap.name == name) return ap.privatizable;
  return false;
}

/// Runs in a fresh child: cold-analyzes every text any op submitted and
/// compares each op's reports with it; for corpus_cold also checks the 31
/// Table-2 privatization statuses.
std::string verify(const Inputs& in, const std::vector<const PassResult*>& passes) {
  struct Reference {
    std::string report;
    std::uint64_t hash = 0;
  };
  std::map<std::uint32_t, Reference> expected;  // the cold reports, per text id
  std::vector<std::set<std::size_t>> badOps(passes.size());  // op indices per pass
  std::uint64_t table2Agree = 0, table2Total = 0;
  auto reference = [&](std::uint32_t textId) -> const Reference& {
    auto it = expected.find(textId);
    if (it != expected.end()) return it->second;
    std::size_t loops = 0;
    std::string report = coldReport(in.texts.text(textId), [&](const panorama::ProgramAnalysis& pa) {
      loops = pa.loops.size();
    });
    if (in.workload == Workload::DaemonMix)
      report = daemonReport(in.programs[in.texts.program(textId)].name + ".f", loops, report);
    const std::uint64_t hash = hashBytes(report);
    return expected[textId] = Reference{std::move(report), hash};
  };
  for (std::size_t p = 0; p < passes.size(); ++p) {
    // The first report of each text is compared byte for byte; every op of
    // that text must then carry the same hash and length.
    std::set<std::uint32_t> badTexts;
    for (const auto& [id, text] : passes[p]->reports)
      if (text != reference(id).report) badTexts.insert(id);
    const std::vector<OpRecord>& ops = passes[p]->ops;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const OpRecord& op = ops[i];
      if (!op.ok) {
        badOps[p].insert(i);
        continue;
      }
      if (op.textId == UINT32_MAX) continue;
      const Reference& ref = reference(op.textId);
      if (badTexts.count(op.textId) || op.reportHash != ref.hash ||
          op.reportBytes != ref.report.size())
        badOps[p].insert(i);
    }
  }
  if (in.workload == Workload::CorpusCold) {
    for (const panorama::CorpusLoop& cl : panorama::perfectCorpus()) {
      coldReport(cl.source, [&](const panorama::ProgramAnalysis& pa) {
        const panorama::Stmt* loop = panorama::findOuterLoop(pa.program, cl.routine, cl.outerLoopIndex);
        const panorama::LoopAnalysis* found = nullptr;
        for (const panorama::LoopAnalysis& la : pa.loops)
          if (la.loop == loop) found = &la;
        for (const std::string& name : cl.privatizable) {
          ++table2Total;
          table2Agree += found && arrayPrivatizable(*found, name);
        }
        for (const std::string& name : cl.notPrivatizable) {
          ++table2Total;
          table2Agree += found && !arrayPrivatizable(*found, name);
        }
      });
    }
  }
  WireOut w;
  w.u64(table2Agree);
  w.u64(table2Total);
  for (const std::set<std::size_t>& bad : badOps) {
    w.u64(bad.size());
    for (std::size_t i : bad) w.u64(i);
  }
  return std::move(w.buffer());
}

// ----- metrics -----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

Timeline timelineOf(const PassResult& r) {
  Timeline t;
  for (const CalWindow& w : r.calibrations) t.add(w.point);
  return t;
}

/// Normalized time of the timed phase outside the calibration windows.
double phaseNormNs(const PassResult& r, const Timeline& t) {
  double total = 0;
  for (std::size_t k = 0; k + 1 < r.calibrations.size(); ++k) {
    const double start = r.calibrations[k].endNs;
    const double dur = r.calibrations[k + 1].startNs - start;
    total += t.normalize(start, dur);
  }
  return total;
}

/// Per-client digest of the exact per-op work and report bytes.
std::vector<std::uint64_t> digests(const PassResult& r, int clients) {
  std::vector<Fnv> f(static_cast<std::size_t>(clients));
  for (const OpRecord& op : r.ops) {
    Fnv& d = f[op.client];
    d.u64(op.kind);
    d.u64(op.program);
    d.u64(op.textId);
    for (std::uint64_t c : op.work) d.u64(c);
    d.u64(op.reportBytes);
    d.u64(op.reportHash);
  }
  std::vector<std::uint64_t> out;
  for (const Fnv& d : f) out.push_back(d.h);
  return out;
}

std::string digestText(const std::vector<std::uint64_t>& d) {
  std::string s;
  for (std::size_t i = 0; i < d.size(); ++i) s += (i ? " " : "") + hex64(d[i]);
  return s;
}

std::vector<Metric> endToEnd(const Args& a, const PassResult& r, double setupS) {
  const Timeline t = timelineOf(r);
  std::vector<double> lat;
  double cpuNs = 0, rssKb = r.peakRssKb;
  std::vector<double> clientOps(kDaemonClients), clientNs(kDaemonClients);
  for (const OpRecord& op : r.ops) {
    const double scale = t.scaleAt(op.startNs + op.wallNs / 2);
    lat.push_back(op.wallNs * scale / 1e6);
    clientOps[op.client] += 1;
    clientNs[op.client] += op.wallNs * scale;
    cpuNs += op.cpuNs * scale;
    rssKb = std::max(rssKb, op.rssKb);
  }
  const double ops = static_cast<double>(r.ops.size());
  double throughput = ops / (phaseNormNs(r, t) / 1e9);
  if (a.workload != Workload::EditWarm) {
    // Only time inside ops counts. For daemon_mix that is each closed-loop
    // client's own time, summed over clients: barrier waits and
    // calibrations are the benchmark's, not the daemon's.
    throughput = 0;
    for (int c = 0; c < kDaemonClients; ++c)
      if (clientOps[c] > 0) throughput += clientOps[c] / (clientNs[c] / 1e9);
  }
  if (a.workload == Workload::DaemonMix) cpuNs = r.servingCpuNormNs;
  return {
      {"setup_s", setupS, "s"},
      {"op_p50_ms", percentile(lat, 0.50), "ms"},
      {"op_p99_ms", percentile(lat, 0.99), "ms"},
      {"throughput_ops_s", throughput, "ops/s"},
      {"cpu_ms_per_op", cpuNs / 1e6 / ops, "ms"},
      {"peak_rss_mb", rssKb / 1024.0, "MB"},
  };
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> perLayer(const Args& a, const PassResult& plain, const PassResult& traced) {
  const Timeline t = timelineOf(traced);
  const double ops = static_cast<double>(traced.ops.size());
  double layer[kLayers] = {};
  double work[kWorkCounts] = {};
  double aux[kAuxCounts] = {};
  double tracedNs = 0;
  std::map<std::string, std::vector<double>> byKind;
  std::vector<double> save, restore, snapshotKb, queueDepth;
  for (const OpRecord& op : traced.ops) {
    const double scale = t.scaleAt(op.startNs + op.wallNs / 2);
    tracedNs += op.wallNs * scale;
    for (std::size_t l = 0; l < kLayers; ++l) layer[l] += op.layerNs[l] * scale;
    for (std::size_t w = 0; w < kWorkCounts; ++w) work[w] += static_cast<double>(op.work[w]);
    for (std::size_t x = 0; x < kAuxCounts; ++x) aux[x] += static_cast<double>(op.aux[x]);
    const double ms = op.wallNs * scale / 1e6;
    if (a.workload == Workload::EditWarm) {
      const EditKind kind = static_cast<EditKind>(op.kind);
      byKind[editKindName(kind)].push_back(ms - (op.layerNs[kSave] + op.layerNs[kRestore]) * scale / 1e6);
      if (kind == EditKind::Restart) {
        save.push_back(op.layerNs[kSave] * scale / 1e6);
        restore.push_back(op.layerNs[kRestore] * scale / 1e6);
        snapshotKb.push_back(static_cast<double>(op.aux[kSnapshotBytes]) / 1024.0);
      }
    }
    if (a.workload == Workload::DaemonMix) {
      const DaemonOp kind = static_cast<DaemonOp>(op.kind);
      const bool read = kind == DaemonOp::Status || kind == DaemonOp::Metrics || kind == DaemonOp::Tail;
      byKind[read ? "read" : daemonOpName(kind)].push_back(ms);
      if (kind == DaemonOp::Status) queueDepth.push_back(op.sample);
    }
  }
  if (a.workload == Workload::DaemonMix)
    for (std::size_t l = 0; l < kLayers; ++l) layer[l] = traced.layerNormNs[l];
  auto value = [&](const std::string& name) {
    auto it = traced.values.find(name);
    return it == traced.values.end() ? 0.0 : it->second;
  };
  auto perOpMs = [&](Layer l) { return layer[l] / 1e6 / ops; };
  auto med = [&](const std::string& kind) {
    auto it = byKind.find(kind);
    return it == byKind.end() ? 0.0 : median(it->second);
  };
  const bool cold = a.workload == Workload::CorpusCold;
  const bool edit = a.workload == Workload::EditWarm;
  double qcHits = cold ? aux[kQcHits] : value("predicate.query_cache.hits");
  double qcMisses = cold ? aux[kQcMisses] : value("predicate.query_cache.misses");

  // The untraced pass's raw figures and the tracing overhead.
  const Timeline pt = timelineOf(plain);
  std::vector<double> raw;
  double plainNs = 0;
  for (const OpRecord& op : plain.ops) {
    raw.push_back(op.wallNs / 1e6);
    plainNs += pt.normalize(op.startNs, op.wallNs);
  }
  std::vector<double> refs;
  for (const CalWindow& w : plain.calibrations) refs.push_back(w.point.refMs);

  std::vector<Metric> m = {
      {"frontend.parse_ms", perOpMs(kParse), "ms"},
      {"analysis.unit_ms", perOpMs(kUnit), "ms"},
      {"ast.sema_ms", perOpMs(kSema), "ms"},
      {"hsg.build_ms", perOpMs(kHsg), "ms"},
      {"summary.proc.self_ms", perOpMs(kSummaryProc), "ms"},
      {"summary.loop_expansion.self_ms", perOpMs(kLoopExpansion), "ms"},
      {"analysis.loop.self_ms", perOpMs(kAnalysisLoop), "ms"},
      {"deptest.loop.self_ms", perOpMs(kDeptestLoop), "ms"},
      {"predicate.query_fm.self_ms", perOpMs(kQueryFm), "ms"},
      {"predicate.query_implies.self_ms", perOpMs(kQueryImplies), "ms"},
      {"predicate.prefilter.self_ms", perOpMs(kPrefilter), "ms"},
      {"region.gars_created", cold ? work[0] / ops : 0, "count/op"},
      {"region.peak_list_length", cold ? work[1] / ops : 0, "count/op"},
      {"summary.loop_expansions", cold ? work[2] / ops : 0, "count/op"},
      {"summary.block_steps", cold ? work[3] / ops : 0, "count/op"},
      {"summary.call_mappings", cold ? work[4] / ops : 0, "count/op"},
      {"predicate.simplify_memo.hit_rate", ratio(aux[kSimplifyHits], aux[kSimplifyHits] + aux[kSimplifyMisses]), "ratio"},
      {"predicate.simplify_memo.hits", aux[kSimplifyHits], "count"},
      {"predicate.simplify_memo.attempts", aux[kSimplifyHits] + aux[kSimplifyMisses], "count"},
      {"predicate.fm_cache.hit_rate", ratio(aux[kFmHits], aux[kFmHits] + aux[kFmMisses]), "ratio"},
      {"predicate.fm_cache.hits", aux[kFmHits], "count"},
      {"predicate.fm_cache.attempts", aux[kFmHits] + aux[kFmMisses], "count"},
      {"predicate.prefilter.discharge_rate", ratio(aux[kPrefilterHits], aux[kPrefilterAttempts]), "ratio"},
      {"predicate.prefilter.discharges", aux[kPrefilterHits], "count"},
      {"predicate.prefilter.attempts", aux[kPrefilterAttempts], "count"},
      {"predicate.query_cache.hit_rate", ratio(qcHits, qcHits + qcMisses), "ratio"},
      {"predicate.query_cache.hits", qcHits, "count"},
      {"predicate.query_cache.misses", qcMisses, "count"},
      {"symbolic.arena.distinct", cold ? aux[kExprDistinct] / ops : value("symbolic.arena.distinct"), "count"},
      {"symbolic.arena.bytes", cold ? aux[kExprBytes] / ops : value("symbolic.arena.bytes"), "B"},
      {"predicate.arena.distinct", cold ? aux[kPredDistinct] / ops : value("predicate.arena.distinct"), "count"},
  };
  for (std::size_t k = 0; k < kEditKinds; ++k) {
    const char* kind = editKindName(static_cast<EditKind>(k));
    m.push_back({std::string("session.submit_ms.") + kind, edit ? med(kind) : 0, "ms"});
  }
  const double reused = edit ? work[2] : 0, recomputed = edit ? work[1] : 0;
  m.push_back({"session.reanalyze.self_ms", perOpMs(kReanalyze), "ms"});
  m.push_back({"session.dirty_units", edit ? work[0] : 0, "count"});
  m.push_back({"session.loops_recomputed", recomputed, "count"});
  m.push_back({"session.loops_reused", reused, "count"});
  m.push_back({"session.loop_reuse_ratio", ratio(reused, reused + recomputed), "ratio"});
  m.push_back({"session.line_remaps", edit ? work[3] : 0, "count"});
  m.push_back({"session.file_skips", edit ? work[4] : 0, "count"});
  m.push_back({"store.save_ms", median(save), "ms"});
  m.push_back({"store.restore_ms", median(restore), "ms"});
  m.push_back({"store.snapshot_kb", median(snapshotKb), "KB"});
  for (const char* op : {"submit_named", "submit_cold", "resubmit", "read"})
    m.push_back({std::string("store.rtt_ms.") + op,
                 a.workload == Workload::DaemonMix ? med(op) : 0, "ms"});
  for (const char* h : {"store.queue_us.p50", "store.queue_us.p99", "store.handle_us.p50",
                        "store.handle_us.p99"})
    m.push_back({h, value(h), "us"});
  double depth = 0;
  for (double d : queueDepth) depth += d;
  m.push_back({"support.pool.queue_depth", queueDepth.empty() ? 0 : depth / static_cast<double>(queueDepth.size()), "count"});
  m.push_back({"obs.trace_overhead_pct", (ratio(tracedNs, plainNs) - 1) * 100, "%"});
  m.push_back({"bench.ref_ms", median(refs), "ms"});
  m.push_back({"bench.raw_op_p50_ms", percentile(raw, 0.50), "ms"});
  m.push_back({"bench.raw_op_p99_ms", percentile(raw, 0.99), "ms"});
  return m;
}

void printJson(bool correct, std::size_t attempted, std::size_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parseArgs(argc, argv);
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (a.workload == Workload::DaemonMix && nproc < kDaemonMinCores) {
    std::fprintf(stderr,
                 "perfbench: daemon_mix needs %d cores (2 clients, 2 pool threads), found %ld; "
                 "refusing to report oversubscribed numbers\n",
                 kDaemonMinCores, nproc);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(a.workDir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", a.workDir.c_str(), ec.message().c_str());
    return 1;
  }
  const Inputs in = buildInputs(a.workload, a.seed, a.seconds);
  const int clients = a.workload == Workload::DaemonMix ? kDaemonClients : 1;

  PassConfig cfg;
  cfg.workDir = a.workDir;
  // Setup samples, each in a fresh process; the measured pass adds one more.
  std::vector<double> setups;
  cfg.setupOnly = true;
  for (int k = 0; k + 1 < kSetupSamples; ++k) {
    const PassResult s = runPass(a, cfg);
    if (!s.ok) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n", s.error.c_str());
      return 1;
    }
    setups.push_back(s.setupRawNs * s.setupScale / 1e9);
  }
  cfg.setupOnly = false;
  const PassResult plain = runPass(a, cfg);
  if (!plain.ok) {
    std::fprintf(stderr, "perfbench: %s pass failed: %s\n", a.workloadName.c_str(), plain.error.c_str());
    return 1;
  }
  setups.push_back(plain.setupRawNs * plain.setupScale / 1e9);
  if (!plain.error.empty()) std::fprintf(stderr, "perfbench: first op error: %s\n", plain.error.c_str());
  PassResult traced;
  std::vector<const PassResult*> passes = {&plain};
  if (a.trace) {
    cfg.traced = true;
    cfg.tracePath = a.workDir + "/trace-" + a.workloadName + "-seed" + std::to_string(a.seed) + ".json";
    traced = runPass(a, cfg);
    if (!traced.ok) {
      std::fprintf(stderr, "perfbench: traced pass failed: %s\n", traced.error.c_str());
      return 1;
    }
    passes.push_back(&traced);
  }

  ChildResult vchild = runInChild([&] { return verify(in, passes); });
  if (!vchild.ok) {
    std::fprintf(stderr, "perfbench: verification failed to run: %s\n", vchild.error.c_str());
    return 1;
  }
  WireIn vin(vchild.payload);
  const auto table2Agree = vin.u64();
  const auto table2Total = vin.u64();
  std::size_t attempted = 0, failed = 0;
  for (const PassResult* p : passes) {
    std::vector<std::size_t> bad(vin.u64());
    for (std::size_t& i : bad) i = vin.u64();
    attempted += p->ops.size();
    failed += bad.size();
    for (std::size_t k = 0; k < bad.size() && k < 20; ++k) {
      const OpRecord& op = p->ops[bad[k]];
      std::printf("MISMATCH %s op %zu: program %s, %s, text %u%s\n",
                  p == &plain ? "untraced" : "traced", bad[k], in.programs[op.program].name.c_str(),
                  a.workload == Workload::DaemonMix ? daemonOpName(static_cast<DaemonOp>(op.kind))
                  : a.workload == Workload::EditWarm ? editKindName(static_cast<EditKind>(op.kind))
                                                     : "cold",
                  op.textId, op.ok ? "" : " (error reply or crashed op)");
    }
  }
  bool correct = failed == 0;
  if (a.workload == Workload::CorpusCold && (table2Total != 31 || table2Agree != table2Total)) {
    correct = false;
    std::printf("TABLE2 %llu / %llu privatization statuses match\n",
                static_cast<unsigned long long>(table2Agree), static_cast<unsigned long long>(table2Total));
  }
  const std::vector<std::uint64_t> digest = digests(plain, clients);
  if (a.trace && digests(traced, clients) != digest) {
    correct = false;
    std::printf("DIGEST MISMATCH untraced %s traced %s\n", digestText(digest).c_str(),
                digestText(digests(traced, clients)).c_str());
  }
  const std::size_t ops = plain.ops.size();
  if (!percentileReportable(ops, 0.99)) {
    correct = false;
    std::printf("too few ops (%zu) for a p99 with %zu samples beyond it\n", ops, kMinBeyond);
  }

  std::vector<double> refs;
  for (const CalWindow& w : plain.calibrations) refs.push_back(w.point.refMs);
  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d (default seed %llu, held-out seed %llu)\n",
              a.workloadName.c_str(), static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0,
              static_cast<unsigned long long>(kDefaultSeed), static_cast<unsigned long long>(kHeldOutSeed));
  std::printf("machine: nproc=%ld analysis_threads=%d client_connections=%d nominal_ref_ms=%.3f "
              "measured_ref_ms median=%.4f min=%.4f max=%.4f calibrations=%zu\n",
              nproc, a.workload == Workload::DaemonMix ? kDaemonPoolThreads : 1,
              a.workload == Workload::DaemonMix ? kDaemonClients : 0, kNominalRefMs, median(refs),
              *std::min_element(refs.begin(), refs.end()), *std::max_element(refs.begin(), refs.end()),
              refs.size());
  std::printf("digest: %s\n", digestText(digest).c_str());
  if (a.workload == Workload::CorpusCold)
    std::printf("table2: %llu / %llu privatization statuses match\n",
                static_cast<unsigned long long>(table2Agree), static_cast<unsigned long long>(table2Total));
  std::printf("ops: %zu per pass, %zu samples beyond p99; attempted %zu, failed %zu, error_rate %.6f\n",
              ops, samplesBeyond(ops, 0.99), attempted, failed,
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0);

  std::vector<double> raw;
  for (const OpRecord& op : plain.ops) raw.push_back(op.wallNs / 1e6);
  std::printf("raw (unnormalized): op_p50_ms=%.4f op_p99_ms=%.4f setup_s samples:", percentile(raw, 0.5),
              percentile(raw, 0.99));
  for (double s : setups) std::printf(" %.4f", s);
  for (const auto& [name, v] : plain.values)
    if (name.rfind("bench.", 0) == 0) std::printf(" %s=%.4f", name.c_str(), v);
  std::printf("\n");
  std::vector<Metric> e2e = endToEnd(a, plain, median(setups));
  for (const Metric& m : e2e) std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  %-34s %14.6f %s\n", "error_rate",
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0, "ratio");
  if (!a.trace) {
    printJson(correct, attempted, failed, e2e);
    return 0;
  }
  std::vector<Metric> layers = perLayer(a, plain, traced);
  std::printf("per-layer (traced pass, normalized; trace file %s):\n", cfg.tracePath.c_str());
  for (const Metric& m : layers) std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  printJson(correct, attempted, failed, layers);
  return 0;
}
