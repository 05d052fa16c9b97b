// paper and datacenter: scenario-spec replays, plus the smoke-digest gate.
//
// Untraced, a pass calls bench::execute_spec once per spec and checks the
// results hash. Traced, the benchmark drives the same steps itself —
// make_scenario, make_run_topology, sim::ShardedRunner, results_json — so
// it can time and count each layer; the hash of that replay must equal the
// untraced one, which proves the instrumented path does the same work.
#include <cstdio>
#include <memory>

#include "bench/harness.hh"
#include "probe.hh"
#include "sim/shard/sharded_runner.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

// The paper's small-topology specs: every shipped spec but the four
// datacenter-scale ones.
const std::vector<std::string> kPaperSpecs = {
    "ablation_signals", "cross_traffic_reverse", "fig10_rttfair",
    "fig11_prior",      "fig4_dumbbell8",        "fig5_dumbbell12",
    "fig6_seqplot",     "fig7_lte4",             "fig8_lte8",
    "fig9_att4",        "fig9_saddle4",          "mixed_rtt_competing",
    "parking_lot",      "satellite_rtt",         "shared_reverse_cellular",
    "table1_dumbbell",  "table2_cellular",       "table6_competing",
    "two_hop_asym"};
const std::vector<std::string> kDatacenterSpecs = {
    "table5_datacenter", "incast_1000", "fat_tree_incast", "incast_10000"};

/// Spec seeds move by this much per benchmark seed, so runs never overlap.
constexpr std::uint64_t kSeedStride = 7919;

struct SpecSet {
  const std::vector<std::string>* names;
  std::int64_t runs;
  std::int64_t shards;
};

SpecSet spec_set(const std::string& workload) {
  if (workload == "paper") return {&kPaperSpecs, 2, 1};
  if (workload == "datacenter") return {&kDatacenterSpecs, 1, 4};
  throw std::invalid_argument{"not a spec workload: " + workload};
}

util::Cli make_cli(const std::vector<std::string>& args) {
  std::vector<const char*> argv{"perfbench"};
  for (const auto& a : args) argv.push_back(a.c_str());
  return util::Cli{static_cast<int>(argv.size()), argv.data()};
}

util::Cli spec_cli(std::int64_t runs, std::int64_t shards) {
  return make_cli({"--runs", std::to_string(runs), "--shards",
                   std::to_string(shards)});
}

std::vector<core::ScenarioSpec> load_specs(const SpecSet& set,
                                           std::uint64_t seed) {
  std::vector<core::ScenarioSpec> out;
  for (const auto& name : *set.names) {
    core::ScenarioSpec spec = bench::load_scenario(name);
    spec.seed0 += seed * kSeedStride;
    out.push_back(std::move(spec));
  }
  return out;
}

std::string replay_hash(const core::ScenarioSpec& spec, const util::Cli& cli) {
  return hex16(bench::results_hash(
      bench::results_json(bench::execute_spec(spec, cli))));
}

/// Spec load + make_scenario for every spec in the set, once.
double setup_once(const SpecSet& set) {
  const double t0 = now_s();
  for (const auto& name : *set.names) {
    const core::ScenarioSpec spec = bench::load_scenario(name);
    const bench::Scenario scenario = bench::make_scenario(spec);
    (void)scenario;
  }
  return now_s() - t0;
}

// ---- the instrumented replay ----------------------------------------------

/// What the traced replay measured, summed over every spec it ran.
struct Tally {
  double make_scenario_s = 0.0;
  double lte_setup_s = 0.0;
  double results_s = 0.0;
  std::vector<double> run_scheme_ms;
  SimCounts sim;
  // Process cost of the runs that actually sharded.
  Usage sharded;
  std::map<std::string, double> run_s_by_spec;
  std::map<std::string, std::size_t> shards_by_spec;
};

/// Mirrors the harness's per-run loop (bench/harness.cc run_all, without
/// arena or tracer): fresh topology and runner per run, then the same
/// per-flow points.
template <typename MakeSender, typename Emit>
void replay_runs(const std::string& spec_name, const bench::Scenario& scenario,
                 const bench::Scheme& scheme, MakeSender&& make_sender,
                 Emit&& emit, Tally& t) {
  SimCounts& c = t.sim;
  const sim::SenderFactory counted = [&](sim::FlowId f) {
    const double t0 = now_s();
    auto sender = make_sender(f);
    c.sender_s += now_s() - t0;
    ++c.senders;
    return sender;
  };
  for (std::size_t run = 0; run < scenario.runs; ++run) {
    const sim::Topology topo = bench::make_run_topology(scenario, scheme, run);
    std::unique_ptr<sim::ShardedRunner> net;
    {
      const Scope span{"sim.build"};
      const double t0 = now_s();
      net = std::make_unique<sim::ShardedRunner>(topo, counted,
                                                 scenario.shards);
      c.build_s += now_s() - t0;
      ++c.builds;
    }
    t.shards_by_spec[spec_name] = net->plan().num_shards;
    {
      const Scope span{"sim.run"};
      const AllocCount a0 = alloc_count();
      const Usage u0 = Usage::now();
      net->run_for_seconds(scenario.duration_s);
      const Usage du = Usage::now() - u0;
      const AllocCount a1 = alloc_count();
      c.run_s += du.wall_s;
      t.run_s_by_spec[spec_name] += du.wall_s;
      c.run_allocs.allocs += a1.allocs - a0.allocs;
      c.run_allocs.bytes += a1.bytes - a0.bytes;
      if (net->sharded()) {
        t.sharded.wall_s += du.wall_s;
        t.sharded.user_s += du.user_s;
        t.sharded.sys_s += du.sys_s;
        t.sharded.nvcsw += du.nvcsw;
      }
    }
    c.events += net->events_processed();
    sim::MetricsHub& metrics = net->metrics();
    for (sim::FlowId f = 0; f < metrics.num_flows(); ++f) {
      const sim::FlowStats& fs = metrics.flow(f);
      c.add_flow(fs);
      if (fs.on_time_ms <= 0.0) continue;  // never participated
      emit(f, bench::Point{fs.throughput_mbps(), fs.avg_queue_delay_ms(),
                           fs.avg_rtt_ms()});
    }
  }
}

/// bench::execute_spec, step by step, with a span around each public call.
std::string replay_traced(const core::ScenarioSpec& spec, const util::Cli& cli,
                          Tally& t) {
  const Scope spec_span{"harness.spec"};
  bench::SpecRun run;
  run.spec = spec;
  {
    const Scope span{"harness.make_scenario"};
    const double t0 = now_s();
    run.scenario = bench::make_scenario(spec);
    const double dt = now_s() - t0;
    t.make_scenario_s += dt;
    if (spec.link.kind == core::LinkSpec::Kind::kLte) t.lte_setup_s += dt;
  }
  bench::apply_cli(cli, run.scenario, &spec);
  const auto timed_sweep = [&](auto&& body) {
    const Scope span{"harness.run_scheme"};
    const double t0 = now_s();
    body();
    t.run_scheme_ms.push_back((now_s() - t0) * 1e3);
  };
  if (!spec.flow_schemes.empty()) {  // no --schemes override here
    // run_mixed: flow i runs per_flow[i % n] over the default queue.
    const std::vector<bench::Scheme> per_flow =
        cc::Registry::global().schemes(spec.flow_schemes);
    std::map<std::string, std::size_t> index;
    for (const auto& s : per_flow) {
      if (index.emplace(s.name, run.results.size()).second) {
        run.results.push_back(bench::SchemeSummary{s.name, {}, {}});
      }
    }
    timed_sweep([&] {
      replay_runs(
          spec.name, run.scenario, bench::Scheme{},
          [&](sim::FlowId f) {
            return per_flow[f % per_flow.size()].make_sender();
          },
          [&](sim::FlowId f, const bench::Point& p) {
            const std::string& name = per_flow[f % per_flow.size()].name;
            run.results[index.at(name)].points.push_back(p);
          },
          t);
    });
  } else {
    const std::vector<bench::Scheme> schemes = bench::schemes_for(spec, cli);
    run.spec.schemes.clear();
    run.spec.flow_schemes.clear();
    for (const auto& scheme : schemes) {
      run.spec.schemes.push_back(scheme.spec);
      bench::SchemeSummary out;
      out.scheme = scheme.name;
      timed_sweep([&] {
        replay_runs(
            spec.name, run.scenario, scheme,
            [&](sim::FlowId) { return scheme.make_sender(); },
            [&](sim::FlowId, const bench::Point& p) {
              out.points.push_back(p);
            }, t);
      });
      run.results.push_back(std::move(out));
    }
  }
  run.spec.runs = run.scenario.runs;
  run.spec.duration_s = run.scenario.duration_s;
  const Scope span{"harness.results"};
  const double t0 = now_s();
  const std::string hash =
      hex16(bench::results_hash(bench::results_json(run)));
  t.results_s += now_s() - t0;
  return hash;
}

/// Recorded hashes for (workload, seed), or null when none were recorded.
const util::Json* recorded_hashes(const Options& opt) {
  if (!opt.recorded.is_object() || !opt.recorded.contains(opt.workload)) {
    return nullptr;
  }
  const util::Json& by_seed = opt.recorded.at(opt.workload);
  const std::string key = std::to_string(opt.seed);
  return by_seed.contains(key) ? &by_seed.at(key) : nullptr;
}

/// One untimed replay per spec at `shards`, for the invariant checks. A
/// replay that throws leaves a hash no pass can match.
std::vector<std::string> reference_hashes(
    const std::vector<core::ScenarioSpec>& specs, const SpecSet& set,
    std::int64_t shards) {
  const util::Cli cli = spec_cli(set.runs, shards);
  std::vector<std::string> out;
  for (const auto& spec : specs) {
    try {
      out.push_back(replay_hash(spec, cli));
    } catch (const std::exception& e) {
      out.push_back(std::string{"(reference replay failed: "} + e.what() + ")");
    }
  }
  return out;
}

/// One untraced pass: execute_spec over every spec, each hash checked.
/// Returns each replay's wall time.
std::vector<double> untraced_pass(const std::vector<core::ScenarioSpec>& specs,
                                  const util::Cli& cli,
                                  const std::vector<std::string>& expected,
                                  Result& r) {
  std::vector<double> spec_s;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ++r.attempted;
    const double t0 = now_s();
    try {
      const std::string h = replay_hash(specs[i], cli);
      if (h != expected[i]) {
        r.fail(1, specs[i].name + ": hash " + h + " != " + expected[i]);
      }
    } catch (const std::exception& e) {
      r.fail(1, specs[i].name + ": " + e.what());
    }
    spec_s.push_back(now_s() - t0);
  }
  return spec_s;
}

/// One instrumented pass over every spec; returns the pass wall time.
double traced_pass(const std::vector<core::ScenarioSpec>& specs,
                   const util::Cli& cli,
                   const std::vector<std::string>& expected, Tally& t,
                   Result& r) {
  const double t0 = now_s();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ++r.attempted;
    try {
      const std::string h = replay_traced(specs[i], cli, t);
      if (h != expected[i]) {
        r.fail(1, specs[i].name + ": traced hash " + h + " != " + expected[i]);
      }
    } catch (const std::exception& e) {
      r.fail(1, specs[i].name + " (traced): " + e.what());
    }
  }
  return now_s() - t0;
}

}  // namespace

Result run_gate() {
  Result r;
  const util::Json digests =
      util::json_from_file(std::string{REMY_DATA_DIR} + "/scheme_digests.json")
          .at("digests");
  const util::Cli cli = make_cli({"--smoke"});
  for (const auto& [name, blessed] : digests.as_object()) {
    ++r.attempted;
    try {
      const std::string h = replay_hash(bench::load_scenario(name), cli);
      if (h != blessed.as_string()) {
        r.fail(1, "smoke digest " + name + ": " + h + " != " +
                      blessed.as_string());
      }
    } catch (const std::exception& e) {
      r.fail(1, "smoke digest " + name + ": " + e.what());
    }
  }
  return r;
}

util::Json spec_hashes(const std::string& workload, std::uint64_t seed) {
  const SpecSet set = spec_set(workload);
  const std::vector<core::ScenarioSpec> specs = load_specs(set, seed);
  const std::vector<std::string> hashes =
      reference_hashes(specs, set, set.shards);
  util::JsonObject out;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    out[specs[i].name] = hashes[i];
  }
  return util::Json{std::move(out)};
}

Result run_spec_workload(const Options& opt) {
  Result r;
  const SpecSet set = spec_set(opt.workload);
  const util::Cli cli = spec_cli(set.runs, set.shards);

  SetupSampler setup{[&] { return setup_once(set); }};
  const std::vector<core::ScenarioSpec> specs = load_specs(set, opt.seed);

  // Expected outputs: the recorded hashes when this seed has them. Else the
  // invariants: datacenter's sharded replay must equal the single-threaded
  // one; paper's every pass must repeat the first (untimed) replay.
  std::vector<std::string> expected;
  if (const util::Json* rec = recorded_hashes(opt)) {
    for (const auto& spec : specs) {
      expected.push_back(rec->contains(spec.name)
                             ? rec->at(spec.name).as_string()
                             : std::string{"(not recorded)"});
    }
  } else {
    expected = reference_hashes(specs, set, 1);
  }

  const double phase_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  std::vector<std::vector<double>> spec_s;  // [pass][spec]
  const std::vector<Pass> passes = repeat_passes(phase_s, setup, [&] {
    spec_s.push_back(untraced_pass(specs, cli, expected, r));
  });
  // One pass's wall time as the sum of each spec's fastest replay in this
  // run: interference from the host only ever adds time, and it comes and
  // goes within seconds, so the minimum is the steady estimate of the
  // code's own cost.
  const double wall_s = sum_of_fastest(spec_s);
  if (!opt.trace) {
    report_end_to_end(setup.fastest(), wall_s, passes,
                      static_cast<double>(specs.size()), r);
    return r;
  }

  // Traced run: one instrumented pass at the workload's settings, and on a
  // sharded workload one more at a single shard for the speedup ratios.
  Recorder::get().enable(true);
  set_alloc_counting(true);
  Tally t;
  const double traced_wall = traced_pass(specs, cli, expected, t, r);
  Tally single;
  if (set.shards > 1) {
    const Scope span{"shard.single_reference"};
    traced_pass(specs, spec_cli(set.runs, 1), expected, single, r);
  }
  set_alloc_counting(false);
  Recorder::get().enable(false);

  r.set("harness.make_scenario_s", t.make_scenario_s, "s");
  r.set("harness.run_scheme_p50_ms", percentile(t.run_scheme_ms, 50), "ms");
  r.set("harness.run_scheme_p95_ms", percentile(t.run_scheme_ms, 95), "ms");
  r.set("harness.results_s", t.results_s, "s");
  r.set("trace.lte_setup_s", t.lte_setup_s, "s");
  t.sim.report(r);
  if (set.shards > 1) {
    for (const auto& [name, shards] : t.shards_by_spec) {
      r.set("shard.count." + name, static_cast<double>(shards), "count");
      const auto one = single.run_s_by_spec.find(name);
      r.set("shard.speedup." + name,
            one == single.run_s_by_spec.end()
                ? 0.0
                : one->second / t.run_s_by_spec.at(name),
            "x");
    }
    r.set("shard.nvcsw", static_cast<double>(t.sharded.nvcsw), "count");
    r.set("shard.cpu_per_wall",
          t.sharded.wall_s > 0 ? t.sharded.cpu_s() / t.sharded.wall_s : 0.0,
          "ratio");
  }
  report_proc(passes, wall_s, traced_wall, r);
  if (!opt.spans_out.empty()) Recorder::get().write(opt.spans_out);
  return r;
}

}  // namespace perfbench
