#include "probe.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <numeric>
#include <stdexcept>

namespace perfbench {

// ---- allocation counting ---------------------------------------------------

namespace {

std::atomic<bool> g_counting{false};

/// Per-thread counters on separate cache lines, so four busy threads do not
/// contend on one counter. Threads beyond the slot count share the last.
struct alignas(64) AllocSlot {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> bytes{0};
};
constexpr int kSlots = 64;
AllocSlot g_slots[kSlots];
std::atomic<int> g_next_slot{0};

int thread_slot() {
  thread_local const int slot =
      std::min(g_next_slot.fetch_add(1, std::memory_order_relaxed), kSlots - 1);
  return slot;
}

void note_alloc(std::size_t n) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  AllocSlot& s = g_slots[thread_slot()];
  s.allocs.fetch_add(1, std::memory_order_relaxed);
  s.bytes.fetch_add(n, std::memory_order_relaxed);
}

void* alloc_or_throw(std::size_t n) {
  note_alloc(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}

void* aligned_alloc_or_throw(std::size_t n, std::align_val_t al) {
  note_alloc(n);
  void* p = nullptr;
  const auto align = std::max(static_cast<std::size_t>(al), sizeof(void*));
  if (posix_memalign(&p, align, n == 0 ? 1 : n) == 0) return p;
  throw std::bad_alloc{};
}

}  // namespace

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocCount alloc_count() {
  AllocCount out;
  for (const AllocSlot& s : g_slots) {
    out.allocs += s.allocs.load(std::memory_order_relaxed);
    out.bytes += s.bytes.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace perfbench

// Replaced global allocation functions (the benchmark binary only).
void* operator new(std::size_t n) { return perfbench::alloc_or_throw(n); }
void* operator new[](std::size_t n) { return perfbench::alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::alloc_or_throw(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::alloc_or_throw(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return perfbench::aligned_alloc_or_throw(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return perfbench::aligned_alloc_or_throw(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

// ---- process accounting ----------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.wall_s = now_s();
  u.user_s = tv_s(ru.ru_utime);
  u.sys_s = tv_s(ru.ru_stime);
  u.minflt = ru.ru_minflt;
  u.nvcsw = ru.ru_nvcsw;
  return u;
}

Usage Usage::operator-(const Usage& o) const {
  Usage d;
  d.wall_s = wall_s - o.wall_s;
  d.user_s = user_s - o.user_s;
  d.sys_s = sys_s - o.sys_s;
  d.minflt = minflt - o.minflt;
  d.nvcsw = nvcsw - o.nvcsw;
  return d;
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void reset_peak_rss() {
  std::ofstream clear{"/proc/self/clear_refs"};
  clear << "5\n";  // 5: reset the peak RSS to the current RSS
}

// ---- spans -----------------------------------------------------------------

namespace {
thread_local int t_current_span = -1;
std::atomic<int> g_next_thread{0};
int thread_id() {
  thread_local const int id = g_next_thread.fetch_add(1);
  return id;
}
}  // namespace

Recorder::Recorder() : origin_s_{now_s()} {}

Recorder& Recorder::get() {
  static Recorder r;
  return r;
}

int Recorder::open(std::string name, int parent) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.thread = thread_id();
  s.start_s = now_s() - origin_s_;
  const std::lock_guard lock{mutex_};
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Recorder::close(int id) {
  const double end = now_s() - origin_s_;
  const std::lock_guard lock{mutex_};
  spans_.at(static_cast<std::size_t>(id)).end_s = end;
}

std::vector<Span> Recorder::named(const std::string& name) const {
  const std::lock_guard lock{mutex_};
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_s > 0.0) out.push_back(s);
  }
  return out;
}

double Recorder::total_s(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : named(name)) sum += s.dur();
  return sum;
}

void Recorder::write(const std::string& path) const {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"cannot write spans to " + path};
  const std::lock_guard lock{mutex_};
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"id\":%zu,\"parent\":%d,\"thread\":%d,\"start_s\":%.9f,"
                  "\"end_s\":%.9f}\n",
                  i, s.parent, s.thread, s.start_s, s.end_s);
    out << "{\"name\":\"" << s.name << "\"," << buf;
  }
}

Scope::Scope(std::string name, int parent) {
  Recorder& r = Recorder::get();
  if (!r.enabled()) return;
  id_ = r.open(std::move(name), parent == kCurrent ? t_current_span : parent);
  saved_parent_ = t_current_span;
  t_current_span = id_;
}

Scope::~Scope() {
  if (id_ < 0) return;
  Recorder::get().close(id_);
  t_current_span = saved_parent_;
}

// ---- small statistics ------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

void SetupSampler::sample() {
  double sum = 0.0;
  int calls = 0;
  const double start = now_s();
  do {
    sum += once_();
    ++calls;
  } while (now_s() - start < 0.02);
  samples_.push_back(sum / calls);
}

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double sum_of_fastest(const std::vector<std::vector<double>>& times) {
  if (times.empty()) return 0.0;
  const std::size_t stages = times.front().size();
  std::vector<double> totals;
  bool same_stages = true;
  for (const auto& pass : times) {
    totals.push_back(std::accumulate(pass.begin(), pass.end(), 0.0));
    same_stages = same_stages && pass.size() == stages;
  }
  if (!same_stages) return fastest(totals);
  double sum = 0.0;
  for (std::size_t k = 0; k < stages; ++k) {
    double best = times.front()[k];
    for (const auto& pass : times) best = std::min(best, pass[k]);
    sum += best;
  }
  return sum;
}

}  // namespace perfbench
