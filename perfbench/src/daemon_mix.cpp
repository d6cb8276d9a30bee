// daemon_mix: an in-process store::Daemon on a Unix socket in the work
// directory, with a two-thread pool, driven by two closed-loop clients.
// Each client owns its named sessions (never shared), reconnects for cold
// submits on a fresh connection-local session, and reads the telemetry ops
// between submits. Every kDaemonSegment ops both clients meet at a barrier
// where the reference routine runs with no request in flight: once on one
// thread (normalizes CPU time) and once on one thread per client at the
// same time (normalizes wall time, since the clients' requests overlap).
// The barrier also reads every thread's CPU clock: the serving CPU of a
// segment is the process's CPU minus all of the client threads' CPU.
#include <sys/resource.h>
#include <unistd.h>

#include <barrier>
#include <thread>

#include "bench.h"
#include "panorama/obs/trace.h"
#include "panorama/store/daemon.h"
#include "panorama/store/protocol.h"
#include "panorama/support/json.h"

namespace perfbench {

using namespace panorama;
using support::JsonValue;

namespace {

constexpr int kReplyTimeoutMs = 60000;

class Client {
 public:
  explicit Client(std::string path) : path_(std::move(path)) {}
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connect(std::string& error) {
    close();
    fd_ = store::connectUnixSocket(path_, &error, kReplyTimeoutMs);
    return fd_ >= 0 && store::setSocketTimeout(fd_, kReplyTimeoutMs, &error);
  }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  /// One request/response round trip; nullopt on a transport error or a
  /// reply that is not a JSON object with "ok": true.
  std::optional<JsonValue> call(const std::string& request, std::string& error) {
    std::string reply;
    if (!store::writeFrame(fd_, request, &error)) return std::nullopt;
    if (store::readFrame(fd_, reply, &error) != store::FrameStatus::Ok) return std::nullopt;
    std::optional<JsonValue> v = JsonValue::parse(reply, &error);
    if (!v || !v->isObject()) return std::nullopt;
    const JsonValue* ok = v->find("ok");
    if (!ok || !ok->isBool() || !ok->asBool()) {
      const JsonValue* e = v->find("error");
      error = e && e->isString() ? e->asString() : "error reply";
      return std::nullopt;
    }
    return v;
  }

 private:
  std::string path_;
  int fd_ = -1;
};

std::string submitRequest(std::uint64_t id, const std::string& source, const std::string& name,
                          const std::string& session) {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"op\":\"submit\",\"name\":\"";
  support::appendJsonEscaped(out, name);
  out += "\",\"source\":\"";
  support::appendJsonEscaped(out, source);
  out += '"';
  if (!session.empty()) {
    out += ",\"session\":\"";
    support::appendJsonEscaped(out, session);
    out += '"';
  }
  out += '}';
  return out;
}

double number(const JsonValue* v) { return v && v->isNumber() ? v->asNumber() : 0; }

const JsonValue* path(const JsonValue& root, std::initializer_list<const char*> keys) {
  const JsonValue* v = &root;
  for (const char* k : keys) {
    if (!v || !v->isObject()) return nullptr;
    v = v->find(k);
  }
  return v;
}

std::string sessionKey(int client, const ProgramText& p) {
  return "c" + std::to_string(client) + "." + p.name;
}

/// What one client thread carries between ops.
struct ClientState {
  int id = 0;
  std::unique_ptr<Client> conn;
  std::uint64_t tailCursor = 0;
  std::uint64_t nextId = 1;
  clockid_t cpuClock{};  ///< the client thread's CPU clock, set when it starts
  double cpuMark = 0;    ///< its reading at the end of the last barrier
  std::vector<OpRecord> ops;
  std::map<std::uint32_t, std::string> reports;
  std::string error;
};

OpRecord runOp(const Inputs& in, ClientState& cs, const ScriptOp& op, bool traced,
               BenchTrace& trace, std::uint64_t opId) {
  OpRecord rec;
  rec.kind = op.kind;
  rec.program = op.program;
  rec.client = static_cast<std::uint32_t>(cs.id);
  const DaemonOp kind = static_cast<DaemonOp>(op.kind);
  const bool submit =
      kind == DaemonOp::SubmitNamed || kind == DaemonOp::SubmitCold || kind == DaemonOp::Resubmit;
  rec.textId = submit ? op.textId : UINT32_MAX;
  const ProgramText& prog = in.programs[op.program];
  std::string request;
  switch (kind) {
    case DaemonOp::SubmitNamed:
    case DaemonOp::Resubmit:
      request = submitRequest(cs.nextId++, in.texts.text(op.textId), prog.name + ".f",
                              sessionKey(cs.id, prog));
      break;
    case DaemonOp::SubmitCold:
      request = submitRequest(cs.nextId++, in.texts.text(op.textId), prog.name + ".f", "");
      break;
    case DaemonOp::Status:
      request = "{\"id\":" + std::to_string(cs.nextId++) + ",\"op\":\"status\"}";
      break;
    case DaemonOp::Metrics:
      request = "{\"id\":" + std::to_string(cs.nextId++) + ",\"op\":\"metrics\"}";
      break;
    case DaemonOp::Tail:
      request = "{\"id\":" + std::to_string(cs.nextId++) + ",\"op\":\"tail\",\"cursor\":" +
                std::to_string(cs.tailCursor) + ",\"max\":100}";
      break;
  }
  std::string error;
  const double t0 = nowNs();
  bool connected = true;
  if (kind == DaemonOp::SubmitCold) connected = cs.conn->connect(error);
  std::optional<JsonValue> reply;
  if (connected) reply = cs.conn->call(request, error);
  const double t1 = nowNs();
  rec.startNs = t0;
  rec.wallNs = t1 - t0;
  rec.ok = reply.has_value();
  if (traced) trace.add(opId, daemonOpName(kind), t0, t1 - t0, static_cast<std::uint32_t>(cs.id));
  if (!reply) {
    if (cs.error.empty()) cs.error = std::string(daemonOpName(kind)) + ": " + error;
    return rec;
  }
  if (submit) {
    const JsonValue* report = reply->find("report");
    const std::string text = report && report->isString() ? report->asString() : std::string();
    rec.reportHash = hashBytes(text);
    rec.reportBytes = text.size();
    rec.work[0] = static_cast<std::uint64_t>(number(reply->find("epoch")));
    rec.work[1] = static_cast<std::uint64_t>(number(reply->find("loops")));
    rec.work[2] = static_cast<std::uint64_t>(number(reply->find("file_skips")));
    rec.work[3] = static_cast<std::uint64_t>(number(reply->find("loop_skips")));
    rec.work[4] = static_cast<std::uint64_t>(number(reply->find("units_clean_loops")));
    rec.work[5] = static_cast<std::uint64_t>(number(reply->find("units_dirty_loops")));
    cs.reports.try_emplace(op.textId, text);
  } else if (kind == DaemonOp::Tail) {
    cs.tailCursor = static_cast<std::uint64_t>(number(reply->find("next_cursor")));
  } else if (kind == DaemonOp::Status) {
    rec.sample = number(path(*reply, {"pool", "queue_depth"}));
  }
  return rec;
}

}  // namespace

PassResult runDaemonMix(std::uint64_t seed, int seconds, const PassConfig& cfg) {
  PassResult r;
  // Warm-up submits run on the daemon's two-thread pool.
  SetupTimer setup(kDaemonPoolThreads);
  const Inputs in = buildInputs(Workload::DaemonMix, seed, seconds);
  const std::string socketPath =
      cfg.workDir + "/daemon-" + std::to_string(static_cast<long>(getpid())) + ".sock";
  AnalysisOptions options;
  options.numThreads = kDaemonPoolThreads;
  store::Daemon daemon(socketPath, options);
  std::string error;
  if (!daemon.start(error)) {
    r.ok = false;
    r.error = "daemon start: " + error;
    return r;
  }
  std::vector<ClientState> clients(kDaemonClients);
  BenchTrace trace;
  // Warm-up: each client connects and submits every base text to its own
  // named sessions.
  for (int c = 0; c < kDaemonClients && r.ok; ++c) {
    ClientState& cs = clients[c];
    cs.id = c;
    cs.conn = std::make_unique<Client>(socketPath);
    if (!cs.conn->connect(error)) {
      r.ok = false;
      r.error = "connect: " + error;
      break;
    }
    for (std::uint32_t p = 0; p < in.programs.size(); ++p) {
      const std::string req = submitRequest(cs.nextId++, in.programs[p].base,
                                            in.programs[p].name + ".f",
                                            sessionKey(c, in.programs[p]));
      if (!cs.conn->call(req, error)) {
        r.ok = false;
        r.error = "warm-up submit: " + error;
        break;
      }
    }
  }
  setup.finish(r);

  if (r.ok && !cfg.setupOnly) {
    if (cfg.traced) obs::Tracer::global().enable();
    double lastCpu = 0;
    double lastSingleRef = 0;
    std::vector<double> singleRefs;
    // The first call runs before the client threads exist; each later one
    // runs on the last client thread to reach the barrier.
    auto segmentEnd = [&]() noexcept {
      const bool clientsRunning = !r.calibrations.empty();
      const double cpuBefore = processCpuNs();
      double clientCpu = 0;
      if (clientsRunning)
        for (const ClientState& cs : clients) clientCpu += cpuClockNs(cs.cpuClock) - cs.cpuMark;
      double layerNs[kLayers] = {};
      if (cfg.traced) foldLibraryTrace(layerNs);
      CalWindow w;
      w.startNs = nowNs();
      const double singleRef = calibrate().refMs;
      w.point = calibrateConcurrent(kDaemonClients);
      w.endNs = nowNs();
      singleRefs.push_back(singleRef);
      if (clientsRunning) {
        // CPU time is not stretched by time-slicing: it scales with the
        // single-thread reference.
        const double scale = kNominalRefMs / ((lastSingleRef + singleRef) / 2);
        r.servingCpuNormNs += std::max(0.0, cpuBefore - lastCpu - clientCpu) * scale;
        // Span durations are wall time on the daemon's threads.
        const double wallScale =
            kNominalRefMs / ((r.calibrations.back().point.refMs + w.point.refMs) / 2);
        for (std::size_t l = 0; l < kLayers; ++l) r.layerNormNs[l] += layerNs[l] * wallScale;
      }
      r.calibrations.push_back(w);
      lastSingleRef = singleRef;
      lastCpu = processCpuNs();
      if (clientsRunning)
        for (ClientState& cs : clients) cs.cpuMark = cpuClockNs(cs.cpuClock);
    };
    segmentEnd();
    std::barrier sync(kDaemonClients, segmentEnd);
    std::vector<std::thread> threads;
    for (int c = 0; c < kDaemonClients; ++c)
      threads.emplace_back([&, c] {
        ClientState& cs = clients[c];
        cs.cpuClock = threadCpuClock();
        const std::vector<ScriptOp>& script = in.clients[c];
        for (std::size_t i = 0; i < script.size(); ++i) {
          if (i > 0 && i % kDaemonSegment == 0) sync.arrive_and_wait();
          cs.ops.push_back(runOp(in, cs, script[i], cfg.traced, trace, i * kDaemonClients + c));
        }
        sync.arrive_and_wait();
      });
    for (std::thread& t : threads) t.join();
    r.values["bench.single_ref_ms"] = median(singleRefs);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    r.peakRssKb = static_cast<double>(ru.ru_maxrss);
    obs::Tracer::global().disable();

    // Final telemetry reads, outside the timed phase.
    ClientState& reader = clients[0];
    if (auto m = reader.conn->call("{\"id\":0,\"op\":\"metrics\"}", error)) {
      const JsonValue* h = path(*m, {"registry", "histograms"});
      for (const char* stat : {"queue_us", "handle_us"})
        for (const char* q : {"p50", "p99"}) {
          const JsonValue* hist = h ? h->find(std::string("daemon.op.submit.") + stat) : nullptr;
          r.values[std::string("store.") + stat + "." + q] = number(hist ? hist->find(q) : nullptr);
        }
    }
    if (auto s = reader.conn->call("{\"id\":0,\"op\":\"status\"}", error)) {
      r.values["predicate.query_cache.hits"] =
          number(path(*s, {"caches", "query_cache", "hits"}));
      r.values["predicate.query_cache.misses"] =
          number(path(*s, {"caches", "query_cache", "misses"}));
      r.values["symbolic.arena.distinct"] = number(path(*s, {"arenas", "expr", "distinct"}));
      r.values["symbolic.arena.bytes"] = number(path(*s, {"arenas", "expr", "bytes"}));
      r.values["predicate.arena.distinct"] = number(path(*s, {"arenas", "pred", "distinct"}));
    }
    for (ClientState& cs : clients) {
      if (!cs.error.empty() && r.error.empty()) r.error = cs.error;
      r.ops.insert(r.ops.end(), cs.ops.begin(), cs.ops.end());
      for (auto& [id, text] : cs.reports) r.reports.try_emplace(id, std::move(text));
    }
  }
  for (ClientState& cs : clients)
    if (cs.conn) cs.conn->close();
  daemon.stop();
  daemon.wait();
  if (cfg.traced && !cfg.tracePath.empty()) trace.write(cfg.tracePath);
  return r;
}

}  // namespace perfbench
