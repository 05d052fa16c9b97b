// perfbench: the benchmark binary that perfbench/run.py builds and drives.
//
//   perfbench --gate
//       replay every blessed smoke digest (data/scheme_digests.json)
//   perfbench --workload paper|datacenter|train --seed N --seconds S
//             --trace 0|1 [--recorded FILE] [--spans-out FILE]
//       run one workload; --trace 0 reports the end-to-end metrics,
//       --trace 1 the per-layer ones
//   perfbench --record paper|datacenter|train --seed N
//       print the outputs to record for that workload and seed
//
// Each mode prints one JSON object as its last line of standard output.
#include <cstdio>
#include <string>

#include "util/cli.hh"
#include "workloads.hh"

namespace perfbench {

std::string hex16(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m{
      {"harness.make_scenario_s", "s"},
      {"harness.run_scheme_p50_ms", "ms"},
      {"harness.run_scheme_p95_ms", "ms"},
      {"harness.results_s", "s"},
      {"trace.lte_setup_s", "s"},
      {"sim.builds", "count"},
      {"sim.build_s", "s"},
      {"sim.run_s", "s"},
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.allocs_per_event", "count"},
      {"sim.alloc_bytes_per_event", "B"},
      {"shard.count.table5_datacenter", "count"},
      {"shard.count.incast_1000", "count"},
      {"shard.count.fat_tree_incast", "count"},
      {"shard.count.incast_10000", "count"},
      {"shard.speedup.table5_datacenter", "x"},
      {"shard.speedup.incast_1000", "x"},
      {"shard.speedup.fat_tree_incast", "x"},
      {"shard.speedup.incast_10000", "x"},
      {"shard.nvcsw", "count"},
      {"shard.cpu_per_wall", "ratio"},
      {"cc.make_sender_us", "us"},
      {"cc.packets_sent", "count"},
      {"cc.retransmissions", "count"},
      {"cc.timeouts", "count"},
      {"cc.delivery_ratio", "ratio"},
      {"cc.ecn_echoes", "count"},
      {"aqm.mean_queue_delay_ms", "ms"},
      {"core.evaluate_calls", "count"},
      {"core.evaluate_p50_ms", "ms"},
      {"core.evaluate_p95_ms", "ms"},
      {"core.pool_util", "ratio"},
      {"core.trainer_self_s", "s"},
      {"core.allocs_per_action", "count"},
      {"proc.cpu_s", "s"},
      {"proc.sys_s", "s"},
      {"proc.minflt", "count"},
      {"proc.nvcsw", "count"},
      {"bench.untraced_wall_s", "s"},
      {"bench.traced_wall_s", "s"},
      {"bench.trace_overhead_s", "s"},
  };
  return m;
}

void SimCounts::add_flow(const sim::FlowStats& fs) {
  packets_sent += fs.packets_sent;
  packets_delivered += fs.packets_delivered;
  retransmissions += fs.retransmissions;
  timeouts += fs.timeouts;
  ecn_echoes += fs.ecn_echoes;
  sum_queue_delay_ms += fs.sum_queue_delay_ms;
}

namespace {
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}
}  // namespace

void SimCounts::report(Result& r) const {
  r.set("sim.builds", static_cast<double>(builds), "count");
  r.set("sim.build_s", build_s, "s");
  r.set("sim.run_s", run_s, "s");
  r.set("sim.events", static_cast<double>(events), "count");
  r.set("sim.events_per_s", ratio(static_cast<double>(events), run_s), "1/s");
  r.set("sim.allocs_per_event", ratio(run_allocs.allocs, events), "count");
  r.set("sim.alloc_bytes_per_event", ratio(run_allocs.bytes, events), "B");
  r.set("cc.make_sender_us",
        ratio(sender_s * 1e6, static_cast<double>(senders)), "us");
  r.set("cc.packets_sent", static_cast<double>(packets_sent), "count");
  r.set("cc.retransmissions", static_cast<double>(retransmissions), "count");
  r.set("cc.timeouts", static_cast<double>(timeouts), "count");
  r.set("cc.delivery_ratio", ratio(packets_delivered, packets_sent), "ratio");
  r.set("cc.ecn_echoes", static_cast<double>(ecn_echoes), "count");
  r.set("aqm.mean_queue_delay_ms",
        ratio(sum_queue_delay_ms, static_cast<double>(packets_delivered)),
        "ms");
}

void report_end_to_end(double setup_s, double wall_s,
                       const std::vector<Pass>& passes, double ops_per_pass,
                       Result& r) {
  r.set("setup_s", setup_s, "s");
  r.set("wall_s", wall_s, "s");
  r.set("peak_rss_mb",
        median(per_pass(passes, [](const Pass& p) { return p.peak_rss_mb; })),
        "MB");
  r.set("actions_per_s", ops_per_pass / wall_s, "1/s");
}

void report_proc(const std::vector<Pass>& untraced, double untraced_wall_s,
                 double traced_wall_s, Result& r) {
  r.set("proc.cpu_s", median(per_pass(untraced, [](const Pass& p) {
          return p.usage.cpu_s();
        })),
        "s");
  r.set("proc.sys_s",
        median(per_pass(untraced, [](const Pass& p) { return p.usage.sys_s; })),
        "s");
  r.set("proc.minflt", median(per_pass(untraced, [](const Pass& p) {
          return static_cast<double>(p.usage.minflt);
        })),
        "count");
  r.set("proc.nvcsw", median(per_pass(untraced, [](const Pass& p) {
          return static_cast<double>(p.usage.nvcsw);
        })),
        "count");
  r.set("bench.untraced_wall_s", untraced_wall_s, "s");
  r.set("bench.traced_wall_s", traced_wall_s, "s");
  r.set("bench.trace_overhead_s", traced_wall_s - untraced_wall_s, "s");
}

namespace {

void print_result(const Result& r) {
  util::JsonArray errors;
  for (const auto& e : r.errors) errors.emplace_back(e);
  util::JsonObject metrics;
  for (const auto& [name, m] : r.metrics) {
    metrics[name] = util::JsonObject{{"value", m.value}, {"unit", m.unit}};
  }
  util::JsonObject out;
  out["attempted"] = r.attempted;
  out["failed"] = r.failed;
  out["errors"] = std::move(errors);
  out["metrics"] = std::move(metrics);
  out["build_type"] = PERFBENCH_BUILD_TYPE;
  out["compiler"] = PERFBENCH_COMPILER;
  std::printf("%s\n", util::Json{std::move(out)}.dump().c_str());
}

int run(const util::Cli& cli) {
  if (cli.has("gate")) {
    print_result(run_gate());
    return 0;
  }
  const auto seed =
      static_cast<std::uint64_t>(cli.get("seed", std::int64_t{1}));
  if (cli.has("record")) {
    const std::string w = cli.get("record", std::string{});
    const util::Json rec = w == "train" ? train_digest() : spec_hashes(w, seed);
    std::printf("%s\n", rec.dump().c_str());
    return 0;
  }

  Options opt;
  opt.workload = cli.get("workload", std::string{});
  if (opt.workload != "paper" && opt.workload != "datacenter" &&
      opt.workload != "train") {
    std::fprintf(stderr, "error: unknown --workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  opt.seed = seed;
  opt.seconds = cli.get("seconds", opt.seconds);
  opt.trace = cli.get("trace", std::int64_t{0}) != 0;
  opt.spans_out = cli.get("spans-out", std::string{});
  const std::string recorded = cli.get("recorded", std::string{});
  if (!recorded.empty()) opt.recorded = util::json_from_file(recorded);

  Result r = opt.workload == "train" ? run_train_workload(opt)
                                     : run_spec_workload(opt);
  if (opt.trace) {
    // Every workload reports the full per-layer set; a layer the workload
    // never enters reads zero.
    for (const auto& [name, unit] : per_layer_metrics()) {
      if (r.metrics.count(name) == 0) r.set(name, 0.0, unit);
    }
  }
  print_result(r);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const remy::util::Cli cli{argc, argv};
  try {
    cli.require_known({"gate", "record", "workload", "seed", "seconds",
                       "trace", "recorded", "spans-out"});
    return perfbench::run(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
