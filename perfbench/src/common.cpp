#include "common.h"

#include <pthread.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

double clockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Keeps the reference routine's result observable so it is never elided.
std::atomic<std::uint64_t> gReferenceSink{0};

}  // namespace

double nowNs() { return clockNs(CLOCK_MONOTONIC); }
double processCpuNs() { return clockNs(CLOCK_PROCESS_CPUTIME_ID); }
clockid_t threadCpuClock() {
  clockid_t clock{};
  pthread_getcpuclockid(pthread_self(), &clock);  // cannot fail for the calling thread on Linux
  return clock;
}
double cpuClockNs(clockid_t clock) { return clockNs(clock); }

double referenceRoutineMs() {
  const double t0 = nowNs();
  constexpr std::size_t kValues = 1u << 14;
  std::vector<std::uint64_t> values;
  values.reserve(kValues);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < kValues; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(x);
  }
  // Hashing with node allocation, the shape of the analyzer's memo tables.
  std::unordered_map<std::uint64_t, std::uint32_t> table;
  for (std::size_t i = 0; i < kValues / 2; ++i) table[values[i] >> 40] += 1;
  // Small short-lived allocations, the shape of GAR/predicate vectors.
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < kValues / 8; ++i) {
    std::vector<std::uint32_t> small(1 + (values[i] & 15), static_cast<std::uint32_t>(i));
    acc += small.back() + small.size();
  }
  std::sort(values.begin(), values.end());
  gReferenceSink.fetch_add(values[kValues / 2] + table.size() + acc, std::memory_order_relaxed);
  return (nowNs() - t0) / 1e6;
}

CalPoint calibrate() {
  const double t0 = nowNs();
  double runs[5];
  for (double& r : runs) r = referenceRoutineMs();
  std::sort(runs, runs + 5);
  return CalPoint{(t0 + nowNs()) / 2, runs[2]};
}

CalPoint calibrateConcurrent(int threads) {
  // The wall time for every thread to finish its runs, per run: when the
  // machine runs the threads on fewer cores than it reports, they take turns
  // and this grows, even though each single run may finish within its turn.
  constexpr int kRuns = 3;
  std::vector<std::thread> pool;
  const double t0 = nowNs();
  for (int t = 1; t < threads; ++t)
    pool.emplace_back([] {
      for (int k = 0; k < kRuns; ++k) referenceRoutineMs();
    });
  for (int k = 0; k < kRuns; ++k) referenceRoutineMs();
  for (std::thread& th : pool) th.join();
  const double t1 = nowNs();
  return CalPoint{(t0 + t1) / 2, (t1 - t0) / 1e6 / kRuns};
}

double Timeline::refAt(double tNs) const {
  if (points_.empty()) return kNominalRefMs;
  if (tNs <= points_.front().tNs) return points_.front().refMs;
  if (tNs >= points_.back().tNs) return points_.back().refMs;
  auto hi = std::upper_bound(points_.begin(), points_.end(), tNs,
                             [](double t, const CalPoint& p) { return t < p.tNs; });
  auto lo = hi - 1;
  const double span = hi->tNs - lo->tNs;
  if (span <= 0) return hi->refMs;
  const double w = (tNs - lo->tNs) / span;
  return lo->refMs + w * (hi->refMs - lo->refMs);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

std::size_t samplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void Fnv::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

std::uint64_t hashBytes(std::string_view s) {
  Fnv f;
  f.bytes(s.data(), s.size());
  return f.h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void WireIn::raw(void* p, std::size_t n) {
  if (data_.size() - pos_ < n) throw std::runtime_error("truncated child payload");
  std::memcpy(p, data_.data() + pos_, n);
  pos_ += n;
}

std::uint64_t WireIn::u64() {
  std::uint64_t v = 0;
  raw(&v, sizeof v);
  return v;
}

double WireIn::f64() {
  double v = 0;
  raw(&v, sizeof v);
  return v;
}

std::string WireIn::str() {
  const std::uint64_t n = u64();
  if (n > data_.size() - pos_) throw std::runtime_error("truncated child payload");
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

ChildResult runInChild(const std::function<std::string()>& body) {
  ChildResult out;
  int fds[2];
  if (pipe(fds) != 0) {
    out.error = std::string("pipe: ") + std::strerror(errno);
    return out;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    out.error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return out;
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const std::string payload = body();
      std::size_t off = 0;
      while (off < payload.size()) {
        const ssize_t n = write(fds[1], payload.data() + off, payload.size() - off);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          code = 4;
          break;
        }
        off += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench child: %s\n", e.what());
      code = 3;
    }
    close(fds[1]);
    std::fflush(stderr);
    _exit(code);
  }
  close(fds[1]);
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.payload.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (wait4(pid, &status, 0, &out.usage) < 0) {
    if (errno != EINTR) {
      out.error = std::string("wait4: ") + std::strerror(errno);
      return out;
    }
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    out.ok = true;
  } else if (WIFEXITED(status)) {
    out.error = "child exited with code " + std::to_string(WEXITSTATUS(status));
  } else {
    out.error = "child killed by signal " + std::to_string(WTERMSIG(status));
  }
  return out;
}

}  // namespace perfbench
