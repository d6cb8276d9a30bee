#include "panorama/store/daemon.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <limits>

#include "panorama/obs/metrics.h"
#include "panorama/obs/trace.h"
#include "panorama/predicate/arena.h"
#include "panorama/predicate/intern.h"
#include "panorama/predicate/predicate.h"
#include "panorama/region/region.h"
#include "panorama/store/protocol.h"
#include "panorama/support/json.h"
#include "panorama/support/memo_cache.h"
#include "panorama/symbolic/arena.h"

namespace panorama::store {

namespace {

using support::JsonValue;
using Clock = std::chrono::steady_clock;

std::uint64_t usSince(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0).count());
}

/// Echo the id the way the client sent it: numbers verbatim (integral
/// doubles inside long long's range without an exponent), strings as JSON
/// strings, anything else — including an absent id — as 0. The parser
/// rejects numbers that overflow a double, so `v` is finite.
std::string renderId(const JsonValue* id) {
  if (id && id->isString()) {
    std::string out = "\"";
    support::appendJsonEscaped(out, id->asString());
    out += '"';
    return out;
  }
  const double v = (id && id->isNumber()) ? id->asNumber() : 0.0;
  if (v >= -0x1p63 && v < 0x1p63) {
    const long long n = static_cast<long long>(v);
    if (static_cast<double>(n) == v) return std::to_string(n);
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string errorResponse(const std::string& id, const std::string& message) {
  std::string out = "{\"id\":" + id + ",\"ok\":false,\"error\":\"";
  support::appendJsonEscaped(out, message);
  out += "\"}";
  return out;
}

bool boolField(const JsonValue& req, std::string_view key) {
  const JsonValue* v = req.find(key);
  return v != nullptr && v->isBool() && v->asBool();
}

/// Metric names must stay a bounded set no matter what op strings clients
/// send, so only the known ops get their own histograms.
const char* canonicalOp(const std::string& op) {
  static constexpr const char* kKnown[] = {"ping", "submit", "shutdown", "status", "metrics",
                                           "tail"};
  for (const char* k : kKnown)
    if (op == k) return k;
  return "other";
}

void appendCacheJson(std::string& out, const char* name, const QueryCache::Stats& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"hits\":%llu,\"misses\":%llu,\"entries\":%llu,\"hit_rate\":%.4f}", name,
                static_cast<unsigned long long>(s.hits), static_cast<unsigned long long>(s.misses),
                static_cast<unsigned long long>(s.entries), s.hitRate());
  out += buf;
}

}  // namespace

Daemon::Daemon(std::string socketPath, AnalysisOptions options, DaemonConfig config)
    : socketPath_(std::move(socketPath)),
      options_(options),
      config_(std::move(config)),
      pool_(options_.numThreads) {}

Daemon::~Daemon() {
  stop();
  wait();
}

bool Daemon::start(std::string& error) {
  if (!config_.eventLogPath.empty()) {
    eventLogFile_ = std::fopen(config_.eventLogPath.c_str(), "w");
    if (!eventLogFile_) {
      error = config_.eventLogPath + ": cannot open event log file";
      return false;
    }
  }
  listenFd_ = listenUnixSocket(socketPath_, &error);
  if (listenFd_ < 0) {
    if (eventLogFile_) {
      std::fclose(eventLogFile_);
      eventLogFile_ = nullptr;
    }
    return false;
  }
  acceptThread_ = std::thread(&Daemon::acceptLoop, this);
  if (config_.telemetryIntervalMs > 0 || eventLogFile_)
    telemetryThread_ = std::thread(&Daemon::telemetryLoop, this);
  return true;
}

void Daemon::acceptLoop() {
  for (;;) {
    int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // stop() shut the listening socket down (or a hard error)
    }
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_.load(std::memory_order_relaxed)) {
        ::close(fd);
        break;
      }
      clientFds_.push_back(fd);
      const std::uint64_t clientId = nextClientId_.fetch_add(1, std::memory_order_relaxed);
      activeConnections_.fetch_add(1, std::memory_order_relaxed);
      totalConnections_.fetch_add(1, std::memory_order_relaxed);
      handlerThreads_.fetch_add(1, std::memory_order_relaxed);
      handlers_.emplace(clientId, std::thread(&Daemon::handleClient, this, fd, clientId));
      finished.swap(finishedHandlers_);
    }
    // With the new connection already served, join the handlers whose
    // connection has closed. Each handed its thread over as its last step
    // under mutex_, so join() waits only for its return (and its session's
    // teardown); joining outside mutex_ keeps that exit path free.
    for (std::thread& t : finished) t.join();
    handlerThreads_.fetch_sub(finished.size(), std::memory_order_relaxed);
  }
  ::close(listenFd_);
  ::unlink(socketPath_.c_str());
}

void Daemon::handleClient(int fd, std::uint64_t clientId) {
  eventLog_.append(obs::EventKind::ConnOpen, obs::EventFields().num("client", clientId).take());
  // One session per connection: client-local incremental state on top of
  // the shared arenas/caches/pool.
  Gated local(options_, &pool_);
  std::string payload;
  std::string frameError;
  for (;;) {
    FrameStatus st = readFrame(fd, payload, &frameError);
    if (st == FrameStatus::TooLarge) {
      // The payload was drained, so the stream is still framed: answer with
      // a structured error and keep serving this connection.
      errors_.fetch_add(1, std::memory_order_relaxed);
      eventLog_.append(obs::EventKind::Error, obs::EventFields()
                                                  .num("client", clientId)
                                                  .str("message", frameError)
                                                  .take());
      if (!writeFrame(fd, errorResponse("0", frameError))) break;
      continue;
    }
    // Eof is a clean disconnect; Error means the client died mid-frame.
    // Either way this connection is done — the shared store is untouched
    // (any in-flight submit completed or never started; session state is
    // connection-local and dies with it).
    if (st != FrameStatus::Ok) break;
    bool shutdownRequested = false;
    const std::string response = handleRequest(payload, local, clientId, shutdownRequested);
    if (!writeFrame(fd, response)) break;
    if (shutdownRequested) {
      stop();
      break;
    }
  }
  eventLog_.append(obs::EventKind::ConnClose, obs::EventFields().num("client", clientId).take());
  std::lock_guard<std::mutex> lock(mutex_);
  clientFds_.erase(std::remove(clientFds_.begin(), clientFds_.end(), fd), clientFds_.end());
  ::close(fd);
  // Hand this thread to the accept loop for joining (unless wait() already
  // took it), then count the connection closed: once `active` drops, the
  // thread is joinable at the next accept.
  if (auto self = handlers_.find(clientId); self != handlers_.end()) {
    finishedHandlers_.push_back(std::move(self->second));
    handlers_.erase(self);
  }
  activeConnections_.fetch_sub(1, std::memory_order_relaxed);
}

std::string Daemon::handleRequest(const std::string& payload, Gated& local,
                                  std::uint64_t clientId, bool& shutdownRequested) {
  obs::Span span("daemon", "daemon.request");
  requests_.fetch_add(1, std::memory_order_relaxed);

  const Clock::time_point t0 = Clock::now();
  RequestInfo info;
  std::string response;
  std::string parseError;
  std::optional<JsonValue> req = JsonValue::parse(payload, &parseError);
  const std::uint64_t parseUs = usSince(t0);
  if (!req || !req->isObject()) {
    info.error =
        "malformed request: " + (parseError.empty() ? "not a JSON object" : parseError);
    response = errorResponse("0", info.error);
  } else {
    const std::string id = renderId(req->find("id"));
    response = dispatch(*req, id, local, clientId, shutdownRequested, info);
  }

  if (!info.error.empty()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    eventLog_.append(obs::EventKind::Error, obs::EventFields()
                                                .num("client", clientId)
                                                .str("op", info.op)
                                                .str("message", info.error)
                                                .take());
  }
  // Wall time splits into queue-wait (parse + session-gate wait: time the
  // request spent *waiting* to be worked on) and handle time (the rest).
  const std::uint64_t wallUs = usSince(t0);
  const std::uint64_t queueUs = parseUs + info.gateWaitUs;
  const std::uint64_t handleUs = wallUs > queueUs ? wallUs - queueUs : 0;
  auto& registry = obs::MetricsRegistry::global();
  const std::string prefix = std::string("daemon.op.") + info.op;
  registry.histogram(prefix + ".wall_us").observe(wallUs);
  registry.histogram(prefix + ".queue_us").observe(queueUs);
  registry.histogram(prefix + ".handle_us").observe(handleUs);
  if (wallUs / 1000 >= config_.slowMs) {
    slowRequests_.fetch_add(1, std::memory_order_relaxed);
    eventLog_.append(obs::EventKind::SlowRequest, obs::EventFields()
                                                      .num("client", clientId)
                                                      .str("op", info.op)
                                                      .real("wall_ms", wallUs / 1000.0)
                                                      .take());
  }
  return response;
}

std::string Daemon::dispatch(const JsonValue& req, const std::string& id, Gated& local,
                             std::uint64_t clientId, bool& shutdownRequested,
                             RequestInfo& info) {
  const JsonValue* opField = req.find("op");
  if (!opField || !opField->isString()) {
    info.error = "request has no \"op\" field";
    return errorResponse(id, info.error);
  }
  const std::string& op = opField->asString();
  info.op = canonicalOp(op);

  if (op == "ping") return "{\"id\":" + id + ",\"ok\":true,\"op\":\"ping\"}";

  if (op == "shutdown") {
    shutdownRequested = true;
    return "{\"id\":" + id + ",\"ok\":true,\"op\":\"shutdown\"}";
  }

  if (op == "status") return statusResponse(id);

  if (op == "metrics") {
    // The registry dump is already JSON; splice it in whole.
    return "{\"id\":" + id + ",\"ok\":true,\"op\":\"metrics\",\"registry\":" +
           obs::MetricsRegistry::global().toJson() + "}";
  }

  if (op == "tail") {
    // Both fields are clamped while still doubles: converting a value of
    // 2^64 or more to an integer is undefined. A cursor past every
    // sequence number reads nothing.
    const JsonValue* cursorField = req.find("cursor");
    const JsonValue* maxField = req.find("max");
    std::uint64_t cursor = 0;
    if (cursorField && cursorField->isNumber() && cursorField->asNumber() >= 0)
      cursor = cursorField->asNumber() < 0x1p64
                   ? static_cast<std::uint64_t>(cursorField->asNumber())
                   : std::numeric_limits<std::uint64_t>::max();
    std::size_t maxEvents = 100;
    if (maxField && maxField->isNumber() && maxField->asNumber() >= 0)
      maxEvents = static_cast<std::size_t>(std::min(maxField->asNumber(), 1000.0));
    obs::EventLog::Tail t = eventLog_.tail(cursor, maxEvents);
    std::string out = "{\"id\":" + id + ",\"ok\":true,\"op\":\"tail\",\"events\":[";
    for (std::size_t i = 0; i < t.events.size(); ++i) {
      if (i) out += ',';
      out += t.events[i];
    }
    out += "],\"next_cursor\":" + std::to_string(t.nextCursor) +
           ",\"dropped\":" + std::to_string(t.dropped) + "}";
    return out;
  }

  if (op == "submit") {
    const JsonValue* source = req.find("source");
    if (!source || !source->isString()) {
      info.error = "submit needs a string \"source\" field";
      return errorResponse(id, info.error);
    }
    const JsonValue* nameField = req.find("name");
    const std::string name =
        (nameField && nameField->isString()) ? nameField->asString() : "<client>";
    const bool explain = boolField(req, "explain");
    const bool wantStats = boolField(req, "stats");
    // "session": run against a named cross-connection session instead of
    // the connection-local one.
    const JsonValue* sessionKey = req.find("session");
    const std::string sessionName =
        (sessionKey && sessionKey->isString()) ? sessionKey->asString() : std::string();
    Gated& target = sessionName.empty() ? local : namedSession(sessionName);

    submits_.fetch_add(1, std::memory_order_relaxed);
    eventLog_.append(obs::EventKind::SubmitBegin, obs::EventFields()
                                                      .num("client", clientId)
                                                      .str("name", name)
                                                      .str("session", sessionName)
                                                      .take());

    const Clock::time_point gateT0 = Clock::now();
    std::lock_guard<std::mutex> gate(target.gate);
    info.gateWaitUs = usSince(gateT0);
    const Clock::time_point submitT0 = Clock::now();
    SessionResult result = target.session.submit(source->asString());
    const std::uint64_t submitUs = usSince(submitT0);
    if (!result.ok) {
      info.error = result.error;
      return errorResponse(id, info.error);
    }
    eventLog_.append(obs::EventKind::SubmitEnd,
                     obs::EventFields()
                         .num("client", clientId)
                         .str("name", name)
                         .str("session", sessionName)
                         .num("epoch", result.stats.epoch)
                         .num("dirty", static_cast<std::uint64_t>(result.stats.dirty))
                         .num("loops", static_cast<std::uint64_t>(result.loops.size()))
                         .num("wall_us", submitUs)
                         .take());

    // Composed exactly like the batch driver's stdout so a client dump
    // diffs clean against `panorama_driver FILE` — the smoke test's gate.
    std::string report = name + ": " + std::to_string(result.loops.size()) + " loop(s)\n\n";
    for (const SessionLoopResult& r : result.loops) {
      report += r.report;
      if (explain) report += r.provenance;
      report += '\n';
    }

    std::string out = "{\"id\":" + id + ",\"ok\":true,\"op\":\"submit\",\"epoch\":" +
                      std::to_string(result.stats.epoch) +
                      ",\"loops\":" + std::to_string(result.loops.size()) +
                      ",\"file_skips\":" + std::to_string(result.stats.fileSkips) +
                      ",\"loop_skips\":" + std::to_string(result.stats.loopSkips) +
                      ",\"units_clean_loops\":" + std::to_string(result.stats.unitsCleanLoops) +
                      ",\"units_dirty_loops\":" + std::to_string(result.stats.unitsDirtyLoops) +
                      ",\"summaries_unchanged\":" +
                      std::to_string(result.stats.summariesUnchanged) +
                      ",\"ue_after_recomputed\":" + std::to_string(result.stats.ueAfterRecomputed) +
                      ",\"report\":\"";
    support::appendJsonEscaped(out, report);
    out += '"';
    if (wantStats) {
      out += ",\"stats\":\"";
      support::appendJsonEscaped(out, formatSessionStats(result.stats));
      out += '"';
    }
    out += '}';
    return out;
  }

  info.error = "unknown op \"" + op + "\"";
  return errorResponse(id, info.error);
}

std::string Daemon::statusResponse(const std::string& id) {
  char buf[384];
  std::string out = "{\"id\":" + id + ",\"ok\":true,\"op\":\"status\"";
  std::snprintf(buf, sizeof(buf), ",\"uptime_ms\":%.3f", eventLog_.uptimeMs());
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      ",\"connections\":{\"active\":%llu,\"total\":%llu,\"handler_threads\":%llu},"
      "\"requests\":%llu,\"submits\":%llu,\"errors\":%llu,\"slow_requests\":%llu",
      static_cast<unsigned long long>(activeConnections_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(totalConnections_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(handlerThreads_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(requests_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(submits_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(errors_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(slowRequests_.load(std::memory_order_relaxed)));
  out += buf;
  std::snprintf(buf, sizeof(buf), ",\"pool\":{\"threads\":%zu,\"queue_depth\":%zu}",
                pool_.threadCount(), pool_.queueDepth());
  out += buf;
  const ExprArena::Stats ea = ExprArena::global().stats();
  const PredArena::Stats pa = PredArena::global().stats();
  const AtomTableStats at = atomTableStats();
  const RegionTable::Stats ra = RegionTable::global().stats();
  std::snprintf(buf, sizeof(buf),
                ",\"arenas\":{\"expr\":{\"distinct\":%zu,\"bytes\":%zu},"
                "\"pred\":{\"distinct\":%zu,\"bytes\":%zu},"
                "\"atom\":{\"distinct\":%zu,\"negations\":%zu,\"bytes\":%zu},"
                "\"region\":{\"distinct\":%zu,\"bytes\":%zu}}",
                ea.distinct, ea.bytes, pa.distinct, pa.bytes, at.distinct, at.negations, at.bytes,
                ra.distinct, ra.bytes);
  out += buf;
  out += ",\"caches\":{";
  appendCacheJson(out, "query_cache", QueryCache::global().stats());
  out += ',';
  appendCacheJson(out, "simplify_memo", simplifyMemoStats());
  out += "},\"sessions\":[";
  {
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    bool first = true;
    for (const auto& [name, gated] : namedSessions_) {
      const AnalysisSession::Status s = gated->session.status();
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"";
      support::appendJsonEscaped(out, name);
      std::snprintf(buf, sizeof(buf),
                    "\",\"epoch\":%llu,\"units\":%zu,\"symbols\":%zu,\"live\":%s,"
                    "\"file_skips\":%llu}",
                    static_cast<unsigned long long>(s.epoch), s.units, s.symbols,
                    s.live ? "true" : "false", static_cast<unsigned long long>(s.fileSkips));
      out += buf;
    }
  }
  std::snprintf(buf, sizeof(buf), "],\"event_log\":{\"appended\":%llu,\"capacity\":%zu}",
                static_cast<unsigned long long>(eventLog_.appended()), eventLog_.capacity());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                ",\"telemetry\":{\"slow_ms\":%zu,\"interval_ms\":%zu,\"event_log_file\":\"",
                config_.slowMs, config_.telemetryIntervalMs);
  out += buf;
  support::appendJsonEscaped(out, config_.eventLogPath);
  out += "\"}}";
  return out;
}

Daemon::Gated& Daemon::namedSession(const std::string& key) {
  std::lock_guard<std::mutex> lock(sessionsMutex_);
  std::unique_ptr<Gated>& slot = namedSessions_[key];
  if (!slot) slot = std::make_unique<Gated>(options_, &pool_);
  return *slot;
}

void Daemon::telemetryLoop() {
  const std::size_t periodMs =
      config_.telemetryIntervalMs > 0 ? config_.telemetryIntervalMs : 500;
  std::unique_lock<std::mutex> lock(telemetryMutex_);
  for (;;) {
    telemetryCv_.wait_for(lock, std::chrono::milliseconds(periodMs),
                          [&] { return stopping_.load(std::memory_order_relaxed); });
    if (stopping_.load(std::memory_order_relaxed)) break;
    if (config_.telemetryIntervalMs > 0) {
      const ExprArena::Stats ea = ExprArena::global().stats();
      const PredArena::Stats pa = PredArena::global().stats();
      eventLog_.append(
          obs::EventKind::Snapshot,
          obs::EventFields()
              .num("requests", requests_.load(std::memory_order_relaxed))
              .num("submits", submits_.load(std::memory_order_relaxed))
              .num("active", activeConnections_.load(std::memory_order_relaxed))
              .num("queue_depth", static_cast<std::uint64_t>(pool_.queueDepth()))
              .num("expr_bytes", static_cast<std::uint64_t>(ea.bytes))
              .num("pred_bytes", static_cast<std::uint64_t>(pa.bytes))
              .real("qc_hit_rate", QueryCache::global().stats().hitRate())
              .take());
    }
    drainEventLog();
  }
}

void Daemon::drainEventLog() {
  if (!eventLogFile_) return;
  for (;;) {
    obs::EventLog::Tail t = eventLog_.tail(sinkCursor_, 256);
    sinkCursor_ = t.nextCursor;
    for (const std::string& e : t.events) {
      std::fwrite(e.data(), 1, e.size(), eventLogFile_);
      std::fputc('\n', eventLogFile_);
    }
    if (t.events.empty()) break;
  }
  std::fflush(eventLogFile_);
}

void Daemon::stop() {
  if (!stopping_.exchange(true)) {
    // Unblock the accept loop (close() alone does not wake a blocked
    // accept(2); shutdown() does) and every handler blocked in readFrame.
    if (listenFd_ >= 0) ::shutdown(listenFd_, SHUT_RDWR);
    std::lock_guard<std::mutex> lock(mutex_);
    for (int fd : clientFds_) ::shutdown(fd, SHUT_RDWR);
  }
  // Taking stopMutex_ pairs with wait()'s predicate check, so a waiter
  // that just saw stopping_ == false is guaranteed to be inside wait()
  // before this notify fires.
  { std::lock_guard<std::mutex> lock(stopMutex_); }
  stopCv_.notify_all();
  // Same pairing for the telemetry thread's wait_for predicate.
  { std::lock_guard<std::mutex> lock(telemetryMutex_); }
  telemetryCv_.notify_all();
}

void Daemon::wait() {
  {
    std::unique_lock<std::mutex> lock(stopMutex_);
    stopCv_.wait(lock, [&] { return stopping_.load(std::memory_order_relaxed); });
  }
  if (acceptThread_.joinable()) acceptThread_.join();
  // The accept loop has exited, so no handler starts any more. Handlers
  // still running find themselves gone from handlers_ and skip the hand-off.
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    handlers.swap(finishedHandlers_);
    for (auto& entry : handlers_) handlers.push_back(std::move(entry.second));
    handlers_.clear();
  }
  for (std::thread& t : handlers)
    if (t.joinable()) t.join();
  handlerThreads_.fetch_sub(handlers.size(), std::memory_order_relaxed);
  if (telemetryThread_.joinable()) telemetryThread_.join();
  // Handlers and the telemetry thread are gone: flush what they appended
  // after the last periodic drain, then close the sink.
  if (eventLogFile_) {
    drainEventLog();
    std::fclose(eventLogFile_);
    eventLogFile_ = nullptr;
  }
}

}  // namespace panorama::store
