// Shared plumbing of the perfbench program: clocks, the reference
// calibration that normalizes every timing, the percentile rule, the
// determinism digest, the child-process wire format, and the fork helper
// that gives each pass (and each corpus_cold op) a fresh process.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ----- clocks -----

/// Monotonic nanoseconds (CLOCK_MONOTONIC: one clock for every process).
double nowNs();
/// CPU time of the whole process (all threads).
double processCpuNs();
/// The calling thread's CPU clock, which any thread of the process can read
/// with cpuClockNs while the thread lives.
clockid_t threadCpuClock();
double cpuClockNs(clockid_t clock);

// ----- reference calibration -----

/// What one run of the reference routine takes on the nominal machine. Every
/// normalized timing reads as "time at nominal machine speed". Changing this
/// constant rescales every normalized metric, so it never changes.
inline constexpr double kNominalRefMs = 2.0;

/// One run of the fixed reference routine (allocation, hashing, sorting;
/// no library code). Returns its wall time in ms.
double referenceRoutineMs();

/// One calibration: the median of five reference runs (robust to two runs
/// disturbed by interference), stamped with the midpoint of the window.
struct CalPoint {
  double tNs = 0;
  double refMs = 0;
};
CalPoint calibrate();
/// The same routine run on `threads` threads at once, three runs each; the
/// reference is the window's wall time per run. A workload whose ops overlap
/// in time is normalized by this, so a machine that runs the threads on
/// fewer cores than it reports reads as slower for it, not as noise.
CalPoint calibrateConcurrent(int threads);

/// The calibrations of one timed phase, in time order. The reference time
/// at `t` is interpolated linearly between the calibrations on either side
/// of `t` (clamped to the first/last outside the covered window), and a raw
/// duration measured at `t` normalizes to raw * kNominalRefMs / refAt(t).
class Timeline {
 public:
  void add(CalPoint p) { points_.push_back(p); }
  double refAt(double tNs) const;
  double scaleAt(double tNs) const { return kNominalRefMs / refAt(tNs); }
  /// Normalizes a span [startNs, startNs + durNs) at its midpoint.
  double normalize(double startNs, double durNs) const {
    return durNs * scaleAt(startNs + durNs / 2);
  }

 private:
  std::vector<CalPoint> points_;
};

// ----- percentiles -----

/// Nearest-rank percentile: the value at rank ceil(q * n) of the sorted
/// samples (q in (0, 1]). Empty input gives 0.
double percentile(std::vector<double> samples, double q);
/// Samples strictly beyond the nearest-rank q-percentile of n samples.
std::size_t samplesBeyond(std::size_t n, double q);
/// The rule every reported tail percentile obeys: at least this many
/// samples lie beyond it.
inline constexpr std::size_t kMinBeyond = 10;
inline bool percentileReportable(std::size_t n, double q) {
  return samplesBeyond(n, q) >= kMinBeyond;
}

// ----- determinism digest -----

/// FNV-1a 64, used for report hashes and the per-run work digest.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};
std::uint64_t hashBytes(std::string_view s);
std::string hex64(std::uint64_t v);

// ----- wire format between a child process and its parent -----

class WireOut {
 public:
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(std::string_view s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  void raw(const void* p, std::size_t n) { buf_.append(static_cast<const char*>(p), n); }
  std::string& buffer() { return buf_; }

 private:
  std::string buf_;
};

/// Reads what WireOut wrote; any overrun throws std::runtime_error.
class WireIn {
 public:
  explicit WireIn(std::string_view data) : data_(data) {}
  std::uint64_t u64();
  double f64();
  std::string str();
  void raw(void* p, std::size_t n);

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

// ----- child processes -----

struct ChildResult {
  bool ok = false;        ///< exited 0 and sent a payload
  std::string payload;    ///< everything the child wrote
  std::string error;
  struct rusage usage {}; ///< the child's own resource usage (wait4)
};

/// Forks; the child runs `body` and writes its return value to a pipe, then
/// _exit(0)s (an exception exits 3 with the message on stderr). The parent
/// reads the pipe to EOF, then reaps the child. Call only from a process
/// with no other threads.
ChildResult runInChild(const std::function<std::string()>& body);

/// Median of a sample (0 for none).
double median(std::vector<double> v);

}  // namespace perfbench
