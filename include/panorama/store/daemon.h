// Analysis-as-a-service (DESIGN.md §4.8) with a live telemetry plane
// (DESIGN.md §4.10): a daemon that keeps the process-global hash-cons
// arenas, the query cache, and one shared thread pool warm across many
// client submissions — and answers for its own health while doing it.
//
// Each accepted connection gets its own handler thread and its own
// AnalysisSession, so one client's incremental state (units, fingerprints,
// cached reports) never bleeds into another's — what *is* shared is the
// structural layer underneath: interned expressions/predicates, the FM
// query cache, and the thread pool the dirty-cone task graphs run on.
// Requests and responses travel as length-prefixed JSON frames
// (store/protocol.h).
//
// Request ops (every request carries a client-chosen "id", echoed back —
// numbers verbatim, strings as JSON strings):
//   {"id":N,"op":"ping"}
//   {"id":N,"op":"submit","source":"...","name":"file.f",
//    "session":"key"?,"explain":true?,"stats":true?}
//   {"id":N,"op":"status"}
//   {"id":N,"op":"metrics"}
//   {"id":N,"op":"tail","cursor":C?,"max":M?}
//   {"id":N,"op":"shutdown"}
//
// The three telemetry ops never touch a session mutex, so they answer
// immediately even while submits are in flight on every session:
//   status  — one JSON object: uptime, connection counts, request/submit/
//             error/slow totals, pool queue depth, arena occupancy, cache
//             hit rates, and one row per live named session (epoch, cached
//             units, file skips). These totals are this daemon's own and
//             are counted nowhere else.
//   metrics — the full MetricsRegistry dump (counters + histograms with
//             p50/p95/p99), including the per-op rolling latency
//             histograms daemon.op.<op>.{wall_us,queue_us,handle_us} —
//             wall split into queue-wait (parse + session-gate wait) and
//             handle time. Sessions write nothing into the registry, so
//             the dump holds no per-session counters.
//   tail    — cursor-based incremental reads of the structured event log
//             (obs/telemetry.h): conn open/close, submit begin/end with
//             session + epoch + dirty-cone size, errors, slow requests,
//             periodic snapshots. The response's next_cursor feeds the next
//             tail; overwritten records surface as an explicit "dropped"
//             count, never as a silent gap.
//
// A submit with a "session" key runs against a named session that outlives
// the connection (created on first use, shared by every client that names
// it), so resubmitting a file under the same key exercises the whole-file
// fast path and the incremental dirty-cone machinery across connections.
// Without a key the submit runs against the connection-local session.
// Either way the submit serializes on a daemon-side gate mutex whose wait
// time is what the queue_us histograms record — cross-client queueing on a
// shared named session is visible, not folded into handle time.
//
// A submit response's "report" field is byte-identical to what
// `panorama_driver file.f` prints for the same source — the daemon smoke
// test diffs the two.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "panorama/obs/telemetry.h"
#include "panorama/session/session.h"
#include "panorama/support/thread_pool.h"

namespace panorama::support {
class JsonValue;
}

namespace panorama::store {

/// Telemetry knobs, all optional — the default-constructed config records
/// per-op latency and events in memory with no file sink and no snapshot
/// thread. Every daemon runs the same request path: there is no switch that
/// turns the telemetry plane off.
struct DaemonConfig {
  /// Requests whose wall time reaches this many milliseconds emit a
  /// slow_request event. 0 records every request (useful in tests).
  std::size_t slowMs = 500;
  /// Period of the self-snapshot thread's snapshot events; 0 disables
  /// snapshots (the thread still runs if an event-log file needs draining).
  std::size_t telemetryIntervalMs = 0;
  /// When set, the telemetry thread drains the event log to this file as
  /// JSONL (one event per line) and flushes the remainder at shutdown.
  std::string eventLogPath;
};

class Daemon {
 public:
  /// Configures the service; no I/O until start(). `options.numThreads`
  /// sizes the one shared pool every client session schedules on.
  Daemon(std::string socketPath, AnalysisOptions options, DaemonConfig config = {});
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the Unix-domain socket, opens the event-log sink (if configured),
  /// and starts the accept loop plus the telemetry thread. False (with
  /// `error` set) when the socket cannot be created — the path is too long,
  /// exists as a non-socket file, or the directory is unwritable — or the
  /// event-log file cannot be opened.
  bool start(std::string& error);

  /// Blocks until the service ends (a client's shutdown request or stop()),
  /// then joins every remaining handler thread and the telemetry thread,
  /// draining the last events to the JSONL sink. Call from the thread that
  /// started the daemon.
  void wait();

  /// Requests shutdown: stops accepting, shuts down live client
  /// connections (their handlers drain and exit), and wakes wait().
  /// Idempotent; safe to call from a handler thread.
  void stop();

  const std::string& socketPath() const { return socketPath_; }
  /// The daemon's event log — what `tail` reads and benches append to.
  obs::EventLog& eventLog() { return eventLog_; }

 private:
  /// A session plus the daemon-side gate that serializes submits to it.
  /// The gate (not the session's internal mutex) is what queue_us measures:
  /// the wait is taken with the request already parsed, so it is pure
  /// cross-request queueing.
  struct Gated {
    Gated(const AnalysisOptions& options, ThreadPool* pool) : session(options, pool) {}
    std::mutex gate;
    AnalysisSession session;
  };

  /// Telemetry carried out of dispatch() for the metrics/event epilogue.
  struct RequestInfo {
    const char* op = "other";       ///< canonical op name (bounded set)
    std::uint64_t gateWaitUs = 0;   ///< submit's wait on the session gate
    std::string error;              ///< non-empty when an error was answered
  };

  void acceptLoop();
  void handleClient(int fd, std::uint64_t clientId);
  /// Parses and dispatches one framed request, then records per-op latency
  /// histograms, error/slow events, and the status totals. Sets
  /// `shutdownRequested` on a shutdown op (the ack is still sent before the
  /// daemon stops).
  std::string handleRequest(const std::string& payload, Gated& local, std::uint64_t clientId,
                            bool& shutdownRequested);
  /// The op switch proper; fills `info` for handleRequest's epilogue.
  std::string dispatch(const support::JsonValue& req, const std::string& id, Gated& local,
                       std::uint64_t clientId, bool& shutdownRequested, RequestInfo& info);
  std::string statusResponse(const std::string& id);
  /// The named session for `key`, created on first use.
  Gated& namedSession(const std::string& key);
  /// Telemetry thread body: periodic snapshot events + JSONL sink drain.
  void telemetryLoop();
  /// Writes every unseen event-log record to the sink file (no-op without
  /// one); callers serialize (the telemetry thread, then wait()'s final
  /// drain after it exits).
  void drainEventLog();

  std::string socketPath_;
  AnalysisOptions options_;
  DaemonConfig config_;
  ThreadPool pool_;

  int listenFd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread acceptThread_;

  /// Guards clientFds_/the handler containers and every close/shutdown of a
  /// client fd, so stop() can never race a handler's close into a recycled
  /// fd.
  std::mutex mutex_;
  std::vector<int> clientFds_;
  /// Handler threads of open connections, by client id. A handler whose
  /// connection closed moves its own thread to finishedHandlers_; the accept
  /// loop joins those when the next connection arrives, and wait() joins
  /// the rest, so a closed connection does not pin its thread until
  /// shutdown.
  std::map<std::uint64_t, std::thread> handlers_;
  std::vector<std::thread> finishedHandlers_;
  /// Handler threads not yet joined (both containers) — the `status` op's
  /// connections.handler_threads.
  std::atomic<std::uint64_t> handlerThreads_{0};

  std::mutex stopMutex_;
  std::condition_variable stopCv_;

  /// Cross-connection sessions, keyed by the submit's "session" field.
  /// The map mutex only guards lookup/insert; submits serialize on each
  /// entry's gate.
  std::mutex sessionsMutex_;
  std::map<std::string, std::unique_ptr<Gated>> namedSessions_;

  // ----- telemetry plane -----
  obs::EventLog eventLog_;
  std::atomic<std::uint64_t> nextClientId_{1};
  std::atomic<std::uint64_t> activeConnections_{0};
  std::atomic<std::uint64_t> totalConnections_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> submits_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> slowRequests_{0};

  std::thread telemetryThread_;
  std::mutex telemetryMutex_;
  std::condition_variable telemetryCv_;
  std::FILE* eventLogFile_ = nullptr;
  std::uint64_t sinkCursor_ = 0;  ///< the JSONL sink's tail cursor
};

}  // namespace panorama::store
