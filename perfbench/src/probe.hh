// Instrumentation owned by the benchmark binary: a counting global
// operator new, getrusage snapshots, and an in-memory span recorder.
//
// None of it reaches into the simulator: spans and counters sit at the
// boundaries where the benchmark calls the program's public functions.
// Everything is off until enabled, so the untraced run pays one relaxed
// atomic load per allocation and nothing else.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// ---- allocation counting ---------------------------------------------------

struct AllocCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// Turns counting in the replaced operator new on or off (traced run only).
void set_alloc_counting(bool on);
/// Allocations made while counting was on, summed over every thread.
AllocCount alloc_count();

// ---- process accounting ----------------------------------------------------

struct Usage {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t minflt = 0;
  std::int64_t nvcsw = 0;

  static Usage now();  ///< RUSAGE_SELF (all threads) + steady clock
  Usage operator-(const Usage& o) const;
  double cpu_s() const { return user_s + sys_s; }
};

/// Peak resident set (VmHWM) since the last reset_peak_rss(), in MiB.
double peak_rss_mb();
/// Restarts the peak-RSS high-water mark (Linux /proc/self/clear_refs);
/// without it, peak_rss_mb() is the peak since the process started.
void reset_peak_rss();

double now_s();  ///< steady clock, seconds since an arbitrary origin

// ---- spans -----------------------------------------------------------------

struct Span {
  std::string name;
  int parent = -1;     ///< index of the enclosing span on the same thread
  int thread = 0;      ///< small per-thread id, 0 = main thread
  double start_s = 0;  ///< relative to the recorder's origin
  double end_s = 0;
  double dur() const { return end_s - start_s; }
};

/// Process-wide span store. Spans are appended under a mutex (they sit at
/// call boundaries, thousands per run, never per packet) and written out
/// once when the benchmark ends.
class Recorder {
 public:
  static Recorder& get();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  int open(std::string name, int parent);
  void close(int id);

  /// Copies of every closed span named `name`.
  std::vector<Span> named(const std::string& name) const;
  double total_s(const std::string& name) const;

  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  Recorder();
  std::atomic<bool> enabled_{false};
  double origin_s_ = 0.0;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span: a no-op unless the recorder is enabled. Its parent is the
/// innermost open span on this thread, or `parent` when the work was handed
/// to another thread.
class Scope {
 public:
  explicit Scope(std::string name, int parent = kCurrent);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  static constexpr int kCurrent = -2;
  int id() const { return id_; }

 private:
  int id_ = -1;
  int saved_parent_ = -1;
};

// ---- small statistics ------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
/// The smallest element; 0 for an empty sample.
double fastest(const std::vector<double>& v);
/// times[pass][stage]: the sum over stages of each stage's fastest time, or
/// the fastest pass total when the passes do not have the same stages.
double sum_of_fastest(const std::vector<std::vector<double>>& times);

/// Set-up time sampled across a run. A sample is the mean of as many calls
/// of `once` (which returns the seconds of its timed part) as fit in 20 ms,
/// since a set-up can take tens of microseconds. Samples are spread over
/// the run and the fastest is reported: a host slowdown lasting seconds
/// cannot reach them all.
class SetupSampler {
 public:
  explicit SetupSampler(std::function<double()> once)
      : once_{std::move(once)} {}
  void sample();
  double fastest() const { return perfbench::fastest(samples_); }

 private:
  std::function<double()> once_;
  std::vector<double> samples_;
};

}  // namespace perfbench
