// The benchmark's workloads. Each one is driven from outside the program,
// through the public functions of bench/harness.hh, sim::ShardedRunner and
// core::Trainer, and reports its end-to-end metrics (untraced run) or its
// per-layer metrics (traced run) in one Result.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "probe.hh"
#include "sim/metrics.hh"
#include "util/json.hh"

namespace remy::bench {}
namespace remy::cc {}
namespace remy::core {}

namespace perfbench {

namespace bench = remy::bench;
namespace cc = remy::cc;
namespace core = remy::core;
namespace sim = remy::sim;
namespace util = remy::util;

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;  ///< one line per failed check

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(std::uint64_t ops, std::string why) {
    failed += ops;
    errors.push_back(std::move(why));
  }
};

/// Simulator and controller counts gathered around ShardedRunner calls the
/// benchmark makes itself (construction and run_until_ms), summed over
/// every run, plus the exact FlowStats totals those runs produced.
struct SimCounts {
  std::uint64_t builds = 0;
  double build_s = 0.0;
  double run_s = 0.0;
  std::uint64_t events = 0;
  AllocCount run_allocs;
  std::uint64_t senders = 0;
  double sender_s = 0.0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t ecn_echoes = 0;
  double sum_queue_delay_ms = 0.0;

  void add_flow(const sim::FlowStats& fs);
  /// sim.*, cc.* and aqm.* metrics.
  void report(Result& r) const;
};

/// One untraced pass over a workload: its getrusage delta and its own peak
/// RSS.
struct Pass {
  Usage usage;
  double peak_rss_mb = 0.0;
};

/// Runs `body` (one pass) until `seconds` have elapsed, at least once. Each
/// pass restarts the peak-RSS mark, so it reports its own peak. The set-up
/// is sampled three times before the first pass and once after each.
template <typename F>
std::vector<Pass> repeat_passes(double seconds, SetupSampler& setup,
                                F&& body) {
  for (int i = 0; i < 3; ++i) setup.sample();
  std::vector<Pass> passes;
  const double start = now_s();
  do {
    reset_peak_rss();
    const Usage u0 = Usage::now();
    body();
    passes.push_back(Pass{Usage::now() - u0, peak_rss_mb()});
    const Pass& p = passes.back();
    std::fprintf(stderr,
                 "pass %zu: %.3f s wall, %.3f s cpu, %.3f s sys, %lld minflt, "
                 "%.1f MB peak\n",
                 passes.size() - 1, p.usage.wall_s, p.usage.cpu_s(),
                 p.usage.sys_s, static_cast<long long>(p.usage.minflt),
                 p.peak_rss_mb);
    setup.sample();
  } while (now_s() - start < seconds);
  return passes;
}

/// One field of every pass, e.g. per_pass(passes, [](const Pass& p) {...}).
inline std::vector<double> per_pass(const std::vector<Pass>& passes,
                                    double (*field)(const Pass&)) {
  std::vector<double> out;
  for (const Pass& p : passes) out.push_back(field(p));
  return out;
}

/// The end-to-end metrics: setup_s, wall_s (one pass), the median over
/// passes of peak_rss_mb, and ops_per_pass / wall_s as actions_per_s.
void report_end_to_end(double setup_s, double wall_s,
                       const std::vector<Pass>& passes, double ops_per_pass,
                       Result& r);

/// proc.* (medians of the untraced passes' getrusage deltas) and the
/// tracing overhead: the traced pass's wall time minus the untraced one's,
/// estimated the same way as wall_s.
void report_proc(const std::vector<Pass>& untraced, double untraced_wall_s,
                 double traced_wall_s, Result& r);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Recorded outputs ({"paper": {"<seed>": {"<spec>": "<hash>"}}, ...});
  /// a null Json means nothing is recorded.
  util::Json recorded;
  std::string spans_out;  ///< where the traced run writes its spans
};

/// A 64-bit digest as 16 lowercase hex digits.
std::string hex16(std::uint64_t h);

/// Replays every blessed smoke digest in data/scheme_digests.json.
Result run_gate();

/// paper / datacenter: spec replays through bench::execute_spec.
Result run_spec_workload(const Options& opt);
/// Computes the per-spec result hashes at `seed` (for recording).
util::Json spec_hashes(const std::string& workload, std::uint64_t seed);

/// train: core::Trainer::run at the fixed budget.
Result run_train_workload(const Options& opt);
/// The fixed budget's tree digest and exact score (for recording).
util::Json train_digest();

/// Every per-layer metric name with its unit, so each workload reports the
/// full set (zero where a layer does not run).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace perfbench
