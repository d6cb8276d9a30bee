// The analysis daemon (store/daemon.h): framed JSON protocol over a Unix
// socket, connection-local and named cross-connection sessions on one
// shared pool and hash-cons store.
//   * two concurrent clients produce exactly what two serial in-process
//     sessions produce;
//   * a client that dies mid-frame does not poison the shared store —
//     the next client analyzes normally;
//   * malformed requests get structured error responses, not a dropped
//     connection, and every reply is JSON, also for numbers that overflow
//     a double or an integer;
//   * a named session persists across connections (the second connection's
//     byte-identical resubmit rides the whole-file fast path);
//   * a closed connection's handler thread is joined at the next accept,
//     so the threads the daemon holds track its open connections;
//   * connection churn leaves the shared verdict cache and its counters
//     as warm as it found them;
//   * a named session fed a stationary edit stream reaches a steady state
//     that `status` shows: flat expression arena, flat symbol count.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "panorama/session/session.h"
#include "panorama/store/daemon.h"
#include "panorama/store/protocol.h"
#include "panorama/support/json.h"
#include "panorama/support/memo_cache.h"
#include "steady_state.h"

namespace panorama {
namespace {

struct CacheGuard {
  ~CacheGuard() { QueryCache::global().configure(QueryCache::kDefaultCapacity); }
};

const char* kProgA = R"(
      subroutine alpha(a, n)
      integer n
      real a(n)
      real t(100)
      do i = 1, n
        t(i) = a(i) * 2.0
        a(i) = t(i) + 1.0
      enddo
      end
)";

const char* kProgAEdited = R"(
      subroutine alpha(a, n)
      integer n
      real a(n)
      real t(100)
      do i = 1, n
        t(i) = a(i) * 3.0
        a(i) = t(i) + 1.0
      enddo
      end
)";

const char* kProgB = R"(
      subroutine beta(b, s, n)
      integer n
      real b(n)
      real s
      do i = 1, n
        s = s + b(i)
      enddo
      end
)";

/// AF_UNIX paths are short; keep them in /tmp and unique per test.
std::string socketPath(const std::string& name) {
  return "/tmp/panodt_" + std::to_string(::getpid()) + "_" + name + ".sock";
}

/// RAII client connection.
struct Client {
  int fd = -1;
  explicit Client(const std::string& path) {
    std::string error;
    fd = store::connectUnixSocket(path, &error);
    EXPECT_GE(fd, 0) << error;
  }
  ~Client() {
    if (fd >= 0) ::close(fd);
  }
};

/// One request/response exchange; fails the test on any transport error.
support::JsonValue rpc(int fd, const std::string& request) {
  std::string error;
  EXPECT_TRUE(store::writeFrame(fd, request, &error)) << error;
  std::string payload;
  EXPECT_EQ(store::readFrame(fd, payload, &error), store::FrameStatus::Ok) << error;
  std::optional<support::JsonValue> v = support::JsonValue::parse(payload, &error);
  EXPECT_TRUE(v.has_value()) << error;
  return v ? *v : support::JsonValue::makeNull();
}

std::string submitRequest(const std::string& source, const std::string& name,
                          const std::string& sessionKey = "") {
  std::string req = "{\"id\":7,\"op\":\"submit\",\"name\":\"";
  support::appendJsonEscaped(req, name);
  if (!sessionKey.empty()) {
    req += "\",\"session\":\"";
    support::appendJsonEscaped(req, sessionKey);
  }
  req += "\",\"source\":\"";
  support::appendJsonEscaped(req, source);
  req += "\"}";
  return req;
}

std::string reportOf(const support::JsonValue& response) {
  const support::JsonValue* ok = response.find("ok");
  EXPECT_TRUE(ok && ok->isBool() && ok->asBool());
  const support::JsonValue* report = response.find("report");
  EXPECT_TRUE(report && report->isString());
  return report && report->isString() ? report->asString() : std::string();
}

/// What the daemon composes for a submit — same shape the batch driver
/// prints (daemon.cpp keeps the two in lockstep).
std::string composeReport(const std::string& name, const SessionResult& r) {
  std::string out = name + ": " + std::to_string(r.loops.size()) + " loop(s)\n\n";
  for (const SessionLoopResult& loop : r.loops) {
    out += loop.report;
    out += '\n';
  }
  return out;
}

TEST(DaemonTest, PingShutdownLifecycle) {
  const std::string path = socketPath("lifecycle");
  store::Daemon daemon(path, AnalysisOptions{});
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;
  {
    Client c(path);
    support::JsonValue pong = rpc(c.fd, "{\"id\":42,\"op\":\"ping\"}");
    const support::JsonValue* ok = pong.find("ok");
    EXPECT_TRUE(ok && ok->isBool() && ok->asBool());
    const support::JsonValue* id = pong.find("id");
    ASSERT_TRUE(id && id->isNumber());
    EXPECT_EQ(id->asNumber(), 42.0);
    rpc(c.fd, "{\"id\":43,\"op\":\"shutdown\"}");
  }
  daemon.wait();  // returns because the client asked for shutdown
  EXPECT_LT(::access(path.c_str(), F_OK), 0) << "socket file not unlinked";
}

TEST(DaemonTest, TwoConcurrentClientsMatchSerialSessions) {
  CacheGuard guard;
  AnalysisOptions options;
  options.numThreads = 2;
  const std::string path = socketPath("concurrent");
  store::Daemon daemon(path, options);
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;

  // Each client keeps one connection and submits a cold + warm sequence;
  // the two run concurrently against the shared pool and arenas.
  std::vector<std::string> reportsA, reportsB;
  std::thread clientA([&] {
    Client c(path);
    reportsA.push_back(reportOf(rpc(c.fd, submitRequest(kProgA, "a.f"))));
    reportsA.push_back(reportOf(rpc(c.fd, submitRequest(kProgAEdited, "a.f"))));
  });
  std::thread clientB([&] {
    Client c(path);
    reportsB.push_back(reportOf(rpc(c.fd, submitRequest(kProgB, "b.f"))));
    reportsB.push_back(reportOf(rpc(c.fd, submitRequest(kProgB, "b.f"))));
  });
  clientA.join();
  clientB.join();
  daemon.stop();
  daemon.wait();

  // Serial references: one in-process session per client, same sequences.
  AnalysisSession serialA(options);
  SessionResult a1 = serialA.submit(kProgA);
  SessionResult a2 = serialA.submit(kProgAEdited);
  ASSERT_TRUE(a1.ok && a2.ok);
  AnalysisSession serialB(options);
  SessionResult b1 = serialB.submit(kProgB);
  SessionResult b2 = serialB.submit(kProgB);
  ASSERT_TRUE(b1.ok && b2.ok);

  ASSERT_EQ(reportsA.size(), 2u);
  ASSERT_EQ(reportsB.size(), 2u);
  EXPECT_EQ(reportsA[0], composeReport("a.f", a1));
  EXPECT_EQ(reportsA[1], composeReport("a.f", a2));
  EXPECT_EQ(reportsB[0], composeReport("b.f", b1));
  EXPECT_EQ(reportsB[1], composeReport("b.f", b2));
}

TEST(DaemonTest, ClientDeathMidFrameDoesNotPoisonTheStore) {
  CacheGuard guard;
  const std::string path = socketPath("midframe");
  store::Daemon daemon(path, AnalysisOptions{});
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;

  {
    // A length prefix promising 100 bytes, then 4 — and the client dies.
    Client dying(path);
    const char partial[] = {100, 0, 0, 0, 'j', 'u', 'n', 'k'};
    ASSERT_EQ(::write(dying.fd, partial, sizeof(partial)),
              static_cast<ssize_t>(sizeof(partial)));
  }

  // The next client gets a fully functional service.
  Client c(path);
  const std::string report = reportOf(rpc(c.fd, submitRequest(kProgA, "a.f")));
  AnalysisSession serial;
  SessionResult ref = serial.submit(kProgA);
  ASSERT_TRUE(ref.ok);
  EXPECT_EQ(report, composeReport("a.f", ref));
}

TEST(DaemonTest, MalformedRequestsGetStructuredErrors) {
  CacheGuard guard;
  const std::string path = socketPath("malformed");
  store::Daemon daemon(path, AnalysisOptions{});
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;

  Client c(path);
  auto expectError = [&](const std::string& request, const std::string& needle) {
    support::JsonValue response = rpc(c.fd, request);
    const support::JsonValue* ok = response.find("ok");
    ASSERT_TRUE(ok && ok->isBool());
    EXPECT_FALSE(ok->asBool());
    const support::JsonValue* msg = response.find("error");
    ASSERT_TRUE(msg && msg->isString());
    EXPECT_NE(msg->asString().find(needle), std::string::npos) << msg->asString();
  };
  expectError("this is not json", "malformed request");
  expectError("{\"id\":1}", "no \"op\" field");
  expectError("{\"id\":1,\"op\":\"frobnicate\"}", "unknown op");
  expectError("{\"id\":1,\"op\":\"submit\"}", "\"source\" field");
  expectError(submitRequest("      garbage that does not parse\n", "bad.f"), "");

  // The connection survives every rejected request.
  const std::string report = reportOf(rpc(c.fd, submitRequest(kProgA, "a.f")));
  EXPECT_FALSE(report.empty());
}

TEST(DaemonTest, OutOfRangeNumbersGetJsonReplies) {
  CacheGuard guard;
  const std::string path = socketPath("range");
  store::Daemon daemon(path, AnalysisOptions{});
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;

  Client c(path);
  reportOf(rpc(c.fd, submitRequest(kProgA, "a.f")));  // events for tail to read
  // rpc() fails the test unless each reply parses as JSON.
  // A literal that overflows a double is malformed, wherever it appears.
  for (const char* request :
       {"{\"id\":1e999,\"op\":\"ping\"}", "{\"id\":-1e999,\"op\":\"ping\"}",
        "{\"id\":3,\"op\":\"tail\",\"cursor\":1e999}"}) {
    support::JsonValue reply = rpc(c.fd, request);
    const support::JsonValue* ok = reply.find("ok");
    ASSERT_TRUE(ok && ok->isBool()) << request;
    EXPECT_FALSE(ok->asBool()) << request;
    const support::JsonValue* msg = reply.find("error");
    ASSERT_TRUE(msg && msg->isString()) << request;
    EXPECT_NE(msg->asString().find("malformed request"), std::string::npos) << msg->asString();
  }
  // Finite numbers past the integer ranges: an id too large for an integer
  // echoes as a number, a cursor of 2^64 or more reads nothing, and a huge
  // max is clamped, not wrapped.
  support::JsonValue ping = rpc(c.fd, "{\"id\":1e300,\"op\":\"ping\"}");
  ASSERT_TRUE(ping.find("id") && ping.find("id")->isNumber());
  EXPECT_EQ(ping.find("id")->asNumber(), 1e300);
  support::JsonValue farCursor = rpc(c.fd, "{\"id\":4,\"op\":\"tail\",\"cursor\":1e300}");
  ASSERT_TRUE(farCursor.find("events") && farCursor.find("events")->isArray());
  EXPECT_TRUE(farCursor.find("events")->items().empty());
  support::JsonValue bigMax = rpc(c.fd, "{\"id\":5,\"op\":\"tail\",\"max\":1e300}");
  ASSERT_TRUE(bigMax.find("events") && bigMax.find("events")->isArray());
  EXPECT_GE(bigMax.find("events")->items().size(), 3u);  // conn_open, submit begin/end

  // The connection keeps serving.
  EXPECT_FALSE(reportOf(rpc(c.fd, submitRequest(kProgA, "a.f"))).empty());
}

TEST(DaemonTest, NamedSessionPersistsAcrossConnections) {
  CacheGuard guard;
  const std::string path = socketPath("named");
  store::Daemon daemon(path, AnalysisOptions{});
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;

  std::string first, second;
  {
    Client c(path);
    first = reportOf(rpc(c.fd, submitRequest(kProgA, "a.f", "shared")));
  }
  {
    // New connection, same named session: the byte-identical resubmit is
    // served by the whole-file fast path.
    Client c(path);
    support::JsonValue response = rpc(c.fd, submitRequest(kProgA, "a.f", "shared"));
    second = reportOf(response);
    const support::JsonValue* skips = response.find("file_skips");
    ASSERT_TRUE(skips && skips->isNumber());
    EXPECT_EQ(skips->asNumber(), 1.0);
  }
  EXPECT_EQ(first, second);
}

TEST(DaemonTest, NamedSessionReachesASteadyState) {
  CacheGuard guard;
  AnalysisOptions options;
  options.numThreads = 2;
  const std::string path = socketPath("steady");
  store::Daemon daemon(path, options);
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;

  Client c(path);
  // arenas.expr.distinct, arenas.region.distinct and the named session's
  // symbols; -1 when absent.
  struct Sample {
    double exprs = -1;
    double regions = -1;
    double symbols = -1;
  };
  auto sample = [&]() -> Sample {
    support::JsonValue status = rpc(c.fd, "{\"id\":1,\"op\":\"status\"}");
    auto number = [](const support::JsonValue* v) {
      return v && v->isNumber() ? v->asNumber() : -1.0;
    };
    const support::JsonValue* arenas = status.find("arenas");
    const support::JsonValue* expr = arenas ? arenas->find("expr") : nullptr;
    const support::JsonValue* region = arenas ? arenas->find("region") : nullptr;
    const support::JsonValue* sessions = status.find("sessions");
    if (!expr || !region || !sessions || !sessions->isArray() ||
        sessions->items().size() != 1u) {
      ADD_FAILURE() << "status lacks arenas.expr, arenas.region or the one named session";
      return {};
    }
    return {number(expr->find("distinct")), number(region->find("distinct")),
            number(sessions->items()[0].find("symbols"))};
  };
  auto submit = [&](const std::string& source) {
    support::JsonValue response = rpc(c.fd, submitRequest(source, "k.f", "steady"));
    const support::JsonValue* ok = response.find("ok");
    return ok && ok->isBool() && ok->asBool();
  };

  ASSERT_TRUE(submit(steady::kernel(steady::Edit::None)));
  Sample settled;
  for (int cycle = 1; cycle <= 21; ++cycle) {
    for (const std::string& text : steady::cycle()) ASSERT_TRUE(submit(text)) << "cycle " << cycle;
    if (cycle == 2) settled = sample();
  }
  const Sample last = sample();
  EXPECT_GT(settled.exprs, 0.0);
  EXPECT_GT(settled.regions, 0.0);
  EXPECT_GT(settled.symbols, 0.0);
  EXPECT_EQ(last.exprs, settled.exprs) << "arenas.expr.distinct grew";
  EXPECT_EQ(last.regions, settled.regions) << "arenas.region.distinct grew";
  EXPECT_EQ(last.symbols, settled.symbols) << "the session's symbols grew";
}

TEST(DaemonTest, ErrorResponsesEchoTheRequestId) {
  const std::string path = socketPath("iderr");
  store::Daemon daemon(path, AnalysisOptions{});
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;

  Client c(path);
  // A request with an id but no "op" still echoes the id.
  support::JsonValue noOp = rpc(c.fd, "{\"id\":77}");
  const support::JsonValue* id = noOp.find("id");
  ASSERT_TRUE(id && id->isNumber());
  EXPECT_EQ(id->asNumber(), 77.0);
  EXPECT_FALSE(noOp.find("ok")->asBool());

  // String ids come back as strings, not as a degenerate 0.
  support::JsonValue strId = rpc(c.fd, "{\"id\":\"req-abc\",\"op\":\"bogus\"}");
  id = strId.find("id");
  ASSERT_TRUE(id && id->isString());
  EXPECT_EQ(id->asString(), "req-abc");

  // Op-specific validation errors echo too.
  support::JsonValue noSource = rpc(c.fd, "{\"id\":9,\"op\":\"submit\"}");
  id = noSource.find("id");
  ASSERT_TRUE(id && id->isNumber());
  EXPECT_EQ(id->asNumber(), 9.0);
}

TEST(DaemonTest, ProtocolFrameExactlyAtTheCapRoundTrips) {
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  std::string big(store::kMaxFrameBytes, 'x');
  std::thread writer([&] {
    std::string werror;
    EXPECT_TRUE(store::writeFrame(sp[0], big, &werror)) << werror;
  });
  std::string payload;
  std::string error;
  EXPECT_EQ(store::readFrame(sp[1], payload, &error), store::FrameStatus::Ok) << error;
  EXPECT_EQ(payload.size(), static_cast<std::size_t>(store::kMaxFrameBytes));
  writer.join();
  ::close(sp[0]);
  ::close(sp[1]);

  // One byte more is refused before any bytes hit the wire.
  big.push_back('x');
  std::string werror;
  EXPECT_FALSE(store::writeFrame(-1, big, &werror));
  EXPECT_NE(werror.find("exceeds"), std::string::npos);
}

TEST(DaemonTest, OversizedFrameGetsStructuredErrorAndConnectionSurvives) {
  CacheGuard guard;
  const std::string path = socketPath("oversize");
  store::Daemon daemon(path, AnalysisOptions{});
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;

  Client c(path);
  // Hand-rolled header promising one byte over the cap; the daemon drains
  // the payload and answers with a structured error on the same stream.
  const std::uint64_t n = static_cast<std::uint64_t>(store::kMaxFrameBytes) + 1;
  char len[4];
  for (int k = 0; k < 4; ++k) len[k] = static_cast<char>((n >> (8 * k)) & 0xff);
  ASSERT_EQ(::write(c.fd, len, sizeof(len)), static_cast<ssize_t>(sizeof(len)));
  std::string chunk(1 << 20, 'j');
  std::uint64_t left = n;
  while (left > 0) {
    const std::size_t w = left < chunk.size() ? static_cast<std::size_t>(left) : chunk.size();
    ASSERT_EQ(::write(c.fd, chunk.data(), w), static_cast<ssize_t>(w));
    left -= w;
  }
  std::string payload;
  ASSERT_EQ(store::readFrame(c.fd, payload, &error), store::FrameStatus::Ok) << error;
  std::optional<support::JsonValue> response = support::JsonValue::parse(payload, &error);
  ASSERT_TRUE(response.has_value()) << error;
  const support::JsonValue* ok = response->find("ok");
  ASSERT_TRUE(ok && ok->isBool());
  EXPECT_FALSE(ok->asBool());
  const support::JsonValue* msg = response->find("error");
  ASSERT_TRUE(msg && msg->isString());
  EXPECT_NE(msg->asString().find("exceeds the protocol maximum"), std::string::npos);

  // The stream stayed framed: a normal submit on the same connection works.
  const std::string report = reportOf(rpc(c.fd, submitRequest(kProgA, "a.f")));
  EXPECT_FALSE(report.empty());
}

TEST(DaemonTest, ZeroLengthFrameIsMalformedNotFatal) {
  CacheGuard guard;
  const std::string path = socketPath("zerolen");
  store::Daemon daemon(path, AnalysisOptions{});
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;

  Client c(path);
  support::JsonValue response = rpc(c.fd, "");
  const support::JsonValue* ok = response.find("ok");
  ASSERT_TRUE(ok && ok->isBool());
  EXPECT_FALSE(ok->asBool());
  const support::JsonValue* msg = response.find("error");
  ASSERT_TRUE(msg && msg->isString());
  EXPECT_NE(msg->asString().find("malformed request"), std::string::npos);

  const std::string report = reportOf(rpc(c.fd, submitRequest(kProgA, "a.f")));
  EXPECT_FALSE(report.empty());
}

TEST(DaemonTest, ReadFrameTimesOutOnASilentPeer) {
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  std::string error;
  ASSERT_TRUE(store::setSocketTimeout(sp[0], 50, &error)) << error;
  std::string payload;
  EXPECT_EQ(store::readFrame(sp[0], payload, &error), store::FrameStatus::Error);
  EXPECT_NE(error.find("timed out"), std::string::npos) << error;
  ::close(sp[0]);
  ::close(sp[1]);
}

TEST(DaemonTest, TelemetryOpsAnswerWhileSubmitsAreInFlight) {
  CacheGuard guard;
  const std::string path = socketPath("telemetry");
  store::DaemonConfig config;
  config.slowMs = 0;  // record a slow_request event for every request
  store::Daemon daemon(path, AnalysisOptions{}, config);
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;

  constexpr int kSubmits = 6;
  std::thread submitter([&] {
    Client c(path);
    for (int k = 0; k < kSubmits; ++k) {
      const char* source = (k % 2 == 0) ? kProgA : kProgAEdited;
      support::JsonValue response = rpc(c.fd, submitRequest(source, "a.f", "s"));
      const support::JsonValue* ok = response.find("ok");
      EXPECT_TRUE(ok && ok->isBool() && ok->asBool());
    }
  });

  // Poll the telemetry plane from a second connection while the submits
  // run: every status/metrics/tail answers ok (none of them can block on a
  // session mutex held by an in-flight submit).
  {
    Client m(path);
    std::uint64_t cursor = 0;
    for (int k = 0; k < 20; ++k) {
      support::JsonValue status = rpc(m.fd, "{\"id\":1,\"op\":\"status\"}");
      const support::JsonValue* ok = status.find("ok");
      ASSERT_TRUE(ok && ok->isBool() && ok->asBool());
      support::JsonValue metrics = rpc(m.fd, "{\"id\":2,\"op\":\"metrics\"}");
      ok = metrics.find("ok");
      ASSERT_TRUE(ok && ok->isBool() && ok->asBool());
      EXPECT_TRUE(metrics.find("registry") && metrics.find("registry")->isObject());
      support::JsonValue tail =
          rpc(m.fd, "{\"id\":3,\"op\":\"tail\",\"cursor\":" + std::to_string(cursor) + "}");
      ok = tail.find("ok");
      ASSERT_TRUE(ok && ok->isBool() && ok->asBool());
      const support::JsonValue* next = tail.find("next_cursor");
      ASSERT_TRUE(next && next->isNumber());
      cursor = static_cast<std::uint64_t>(next->asNumber());
    }
  }
  submitter.join();

  // Quiesced: status totals and the event stream reflect every submit.
  Client c(path);
  support::JsonValue status = rpc(c.fd, "{\"id\":4,\"op\":\"status\"}");
  const support::JsonValue* submits = status.find("submits");
  ASSERT_TRUE(submits && submits->isNumber());
  EXPECT_EQ(submits->asNumber(), static_cast<double>(kSubmits));
  const support::JsonValue* sessions = status.find("sessions");
  ASSERT_TRUE(sessions && sessions->isArray());
  ASSERT_EQ(sessions->items().size(), 1u);
  const support::JsonValue& named = sessions->items()[0];
  EXPECT_EQ(named.find("name")->asString(), "s");
  EXPECT_EQ(named.find("epoch")->asNumber(), static_cast<double>(kSubmits));
  EXPECT_TRUE(named.find("live")->asBool());

  // Arena occupancy, the atom and region tables' beside the
  // expression/predicate arenas: the submits interned atoms and regions and
  // derived some negations.
  const support::JsonValue* arenas = status.find("arenas");
  ASSERT_TRUE(arenas && arenas->isObject());
  for (const char* arena : {"expr", "pred", "atom", "region"}) {
    const support::JsonValue* a = arenas->find(arena);
    ASSERT_TRUE(a && a->isObject()) << arena;
    for (const char* field : {"distinct", "bytes"}) {
      const support::JsonValue* v = a->find(field);
      ASSERT_TRUE(v && v->isNumber()) << arena << "." << field;
      EXPECT_GT(v->asNumber(), 0.0) << arena << "." << field;
    }
  }
  const support::JsonValue* atom = arenas->find("atom");
  const support::JsonValue* negations = atom->find("negations");
  ASSERT_TRUE(negations && negations->isNumber());
  EXPECT_GT(negations->asNumber(), 0.0);
  EXPECT_LE(negations->asNumber(), atom->find("distinct")->asNumber());

  // Per-op latency histograms carry the queue/handle split.
  support::JsonValue metrics = rpc(c.fd, "{\"id\":5,\"op\":\"metrics\"}");
  const support::JsonValue* registry = metrics.find("registry");
  ASSERT_TRUE(registry && registry->isObject());
  const support::JsonValue* histograms = registry->find("histograms");
  ASSERT_TRUE(histograms && histograms->isObject());
  for (const char* name : {"daemon.op.submit.wall_us", "daemon.op.submit.queue_us",
                           "daemon.op.submit.handle_us", "daemon.op.status.wall_us"}) {
    const support::JsonValue* h = histograms->find(name);
    ASSERT_TRUE(h && h->isObject()) << name;
    const support::JsonValue* count = h->find("count");
    ASSERT_TRUE(count && count->isNumber()) << name;
    EXPECT_GE(count->asNumber(), 1.0) << name;
    EXPECT_TRUE(h->find("p50") && h->find("p95") && h->find("p99")) << name;
  }

  // The full event stream: every submit left begin/end records with the
  // session key and epoch, and slowMs=0 made every request a slow_request.
  // Drain only up to the head observed in `status` — with slowMs=0 every
  // tail request appends its own slow_request event, so chasing an empty
  // read would never terminate.
  const support::JsonValue* eventLog = status.find("event_log");
  ASSERT_TRUE(eventLog && eventLog->isObject());
  const std::uint64_t head =
      static_cast<std::uint64_t>(eventLog->find("appended")->asNumber());
  int begins = 0, ends = 0, slow = 0;
  std::uint64_t cursor = 0;
  while (cursor < head) {
    support::JsonValue tail =
        rpc(c.fd, "{\"id\":6,\"op\":\"tail\",\"cursor\":" + std::to_string(cursor) +
                      ",\"max\":1000}");
    const support::JsonValue* events = tail.find("events");
    ASSERT_TRUE(events && events->isArray());
    if (events->items().empty()) break;
    for (const support::JsonValue& ev : events->items()) {
      const std::string& kind = ev.find("kind")->asString();
      if (kind == "submit_begin") {
        ++begins;
        EXPECT_EQ(ev.find("session")->asString(), "s");
      } else if (kind == "submit_end") {
        ++ends;
        EXPECT_EQ(ev.find("session")->asString(), "s");
        EXPECT_GE(ev.find("epoch")->asNumber(), 1.0);
        EXPECT_TRUE(ev.find("dirty") && ev.find("dirty")->isNumber());
      } else if (kind == "slow_request") {
        ++slow;
      }
    }
    cursor = static_cast<std::uint64_t>(tail.find("next_cursor")->asNumber());
  }
  EXPECT_EQ(begins, kSubmits);
  EXPECT_EQ(ends, kSubmits);
  EXPECT_GE(slow, kSubmits);
}

TEST(DaemonTest, EventLogFileWrittenAsJsonl) {
  CacheGuard guard;
  const std::string path = socketPath("evsink");
  const std::string logPath =
      "/tmp/panodt_" + std::to_string(::getpid()) + "_events.jsonl";
  store::DaemonConfig config;
  config.eventLogPath = logPath;
  store::Daemon daemon(path, AnalysisOptions{}, config);
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;
  {
    Client c(path);
    reportOf(rpc(c.fd, submitRequest(kProgA, "a.f", "persisted")));
    rpc(c.fd, "{\"id\":2,\"op\":\"shutdown\"}");
  }
  daemon.wait();

  std::ifstream in(logPath);
  ASSERT_TRUE(in.is_open());
  int lines = 0;
  bool sawSubmitEnd = false;
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
    std::optional<support::JsonValue> ev = support::JsonValue::parse(line, &error);
    ASSERT_TRUE(ev.has_value()) << line << ": " << error;
    const support::JsonValue* kind = ev->find("kind");
    ASSERT_TRUE(kind && kind->isString());
    if (kind->asString() == "submit_end") {
      sawSubmitEnd = true;
      EXPECT_EQ(ev->find("session")->asString(), "persisted");
    }
  }
  EXPECT_GE(lines, 4);  // conn_open, submit begin/end, conn_close at least
  EXPECT_TRUE(sawSubmitEnd);
  std::remove(logPath.c_str());
}

/// `connections.<field>` of a status reply, or -1 when absent.
double connectionsField(const support::JsonValue& status, const char* field) {
  const support::JsonValue* connections = status.find("connections");
  const support::JsonValue* v = connections ? connections->find(field) : nullptr;
  return v && v->isNumber() ? v->asNumber() : -1;
}

/// `caches.query_cache.<field>` of a status reply, or -1 when absent.
double queryCacheField(const support::JsonValue& status, const char* field) {
  const support::JsonValue* caches = status.find("caches");
  const support::JsonValue* qc = caches ? caches->find("query_cache") : nullptr;
  const support::JsonValue* v = qc ? qc->find(field) : nullptr;
  return v && v->isNumber() ? v->asNumber() : -1;
}

TEST(DaemonTest, ConnectionChurnKeepsTheSharedVerdictCacheWarm) {
  CacheGuard guard;
  const std::string path = socketPath("warmcache");
  store::Daemon daemon(path, AnalysisOptions{});
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;
  const std::string status = "{\"id\":1,\"op\":\"status\"}";

  // Every connection builds its own session; none of them may wipe the
  // verdicts (or reset the counters) the resident named session warmed.
  Client resident(path);
  reportOf(rpc(resident.fd, submitRequest(kProgA, "a.f", "warm")));
  const support::JsonValue before = rpc(resident.fd, status);
  ASSERT_GT(queryCacheField(before, "entries"), 0);
  for (int k = 0; k < 20; ++k) {
    Client churn(path);
    rpc(churn.fd, "{\"id\":2,\"op\":\"ping\"}");
  }
  const support::JsonValue after = rpc(resident.fd, status);
  for (const char* field : {"entries", "hits", "misses"})
    EXPECT_GE(queryCacheField(after, field), queryCacheField(before, field)) << field;
}

TEST(DaemonTest, ClosedConnectionsReleaseTheirHandlerThreads) {
  const std::string path = socketPath("churn");
  store::Daemon daemon(path, AnalysisOptions{});
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;
  const std::string status = "{\"id\":1,\"op\":\"status\"}";

  Client resident(path);
  for (int k = 0; k < 50; ++k) {
    Client churn(path);
    rpc(churn.fd, "{\"id\":2,\"op\":\"ping\"}");
  }
  // A handler counts its connection closed only after handing its thread
  // over, so once `resident` is the only active connection, every churned
  // thread is ready to be joined...
  for (int tries = 0; connectionsField(rpc(resident.fd, status), "active") != 1; ++tries) {
    ASSERT_LT(tries, 1000) << "churned connections never closed";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // ...and the next accept joins them all: the threads held fall back to
  // the two open connections.
  Client probe(path);
  support::JsonValue reply = rpc(probe.fd, status);
  for (int tries = 0; connectionsField(reply, "handler_threads") != 2; ++tries) {
    ASSERT_LT(tries, 1000) << "closed connections still hold "
                           << connectionsField(reply, "handler_threads") << " threads";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    reply = rpc(probe.fd, status);
  }
  EXPECT_EQ(connectionsField(reply, "active"), 2);
  EXPECT_EQ(connectionsField(reply, "total"), 52);
}

}  // namespace
}  // namespace panorama
