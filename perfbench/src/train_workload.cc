// train: core::Trainer::run at a fixed budget (preset general, delta 1,
// 1 epoch, 4 specimens of 5 simulated seconds, at most 4 whiskers, 6
// improvement rounds, evaluator seed 1, 4 in-process threads).
//
// Untraced, each pass builds a Trainer and runs it on its own thread pool.
// Traced, the benchmark installs a batch scorer that calls
// core::Evaluator::evaluate on a util::ThreadPool of 4, timing each call;
// scores are bit-identical, so the tree digest must not move. Afterwards it
// replays the trained table once over the four specimens through its own
// sim::ShardedRunner, to count simulator events and allocations on this
// workload's topologies.
#include <cstdio>
#include <limits>
#include <memory>

#include "cc/registry.hh"
#include "core/scheme_registry.hh"
#include "core/trainer.hh"
#include "probe.hh"
#include "sim/shard/sharded_runner.hh"
#include "util/rng.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

constexpr std::uint64_t kTrainSeed = 1;
constexpr std::size_t kThreads = 4;

core::ConfigRange budget_range() {
  return core::ConfigRange::paper_general(1.0);
}

core::TrainerOptions budget_options() {
  core::TrainerOptions opt;
  opt.eval.num_specimens = 4;
  opt.eval.simulation_ms = 5000.0;
  opt.eval.seed = kTrainSeed;
  opt.eval.shards = 1;
  opt.max_epochs = 1;
  opt.max_whiskers = 4;
  opt.max_improvement_rounds = 6;
  opt.threads = kThreads;
  return opt;
}

struct Outcome {
  std::string digest;
  std::string score;
  std::size_t actions = 0;
};

Outcome outcome(const core::TrainResult& res) {
  char buf[32];
  Outcome o;
  o.digest = hex16(core::fnv1a64(res.tree.to_json().dump(2)));
  std::snprintf(buf, sizeof buf, "%.17g", res.score);
  o.score = buf;
  o.actions = res.actions_evaluated;
  return o;
}

/// Checks one pass against the expected outcome; all of a pass's actions
/// fail together on a mismatch.
void check(const Outcome& got, const Outcome& want, const std::string& what,
           Result& r) {
  r.attempted += got.actions;
  if (got.digest != want.digest || got.score != want.score) {
    r.fail(got.actions, what + ": digest " + got.digest + " score " +
                            got.score + " != " + want.digest + " score " +
                            want.score);
  }
}

/// Replays `tree` over the evaluator's specimens through the benchmark's
/// own runner, each checked against Evaluator::run_specimen, and returns
/// the simulator counts of that one evaluation.
SimCounts probe_sim(const core::Evaluator& evaluator,
                   const core::WhiskerTree& tree, Result& r) {
  SimCounts p;
  const core::EvaluatorOptions& eo = evaluator.options();
  // The evaluator draws (specimen, seed) pairs from one RNG in this order.
  util::Rng rng{eo.seed};
  const std::shared_ptr<const core::WhiskerTree> shared{
      std::shared_ptr<void>{}, &tree};
  const cc::SchemeHandle handle = core::remy_scheme_handle(shared);
  const sim::SenderFactory counted = [&](sim::FlowId) {
    const double t0 = now_s();
    auto sender = handle.make_sender();
    p.sender_s += now_s() - t0;
    ++p.senders;
    return sender;
  };
  for (const core::NetConfig& expect : evaluator.specimens()) {
    const core::NetConfig config = evaluator.range().sample(rng);
    const std::uint64_t seed = rng();
    if (config.describe() != expect.describe()) {
      r.fail(0, "sim probe: specimen mismatch " + config.describe());
      return p;
    }
    const std::string queue =
        config.buffer_packets == std::numeric_limits<std::size_t>::max()
            ? "droptail:capacity=0"
            : "droptail:capacity=" + std::to_string(config.buffer_packets);
    sim::Topology topo = sim::Topology::dumbbell(sim::DumbbellTopo{
        config.num_senders, config.link_mbps, config.rtt_ms, {},
        cc::Registry::global().queue_factory(queue), nullptr});
    topo.workload = config.workload();
    topo.seed = seed;

    std::unique_ptr<sim::ShardedRunner> net;
    {
      const Scope span{"sim.build"};
      const double t0 = now_s();
      net = std::make_unique<sim::ShardedRunner>(topo, counted, eo.shards);
      p.build_s += now_s() - t0;
      ++p.builds;
    }
    {
      const Scope span{"sim.run"};
      const AllocCount a0 = alloc_count();
      const double t0 = now_s();
      net->run_for_seconds(eo.simulation_ms / 1000.0);
      p.run_s += now_s() - t0;
      const AllocCount a1 = alloc_count();
      p.run_allocs.allocs += a1.allocs - a0.allocs;
      p.run_allocs.bytes += a1.bytes - a0.bytes;
    }
    p.events += net->events_processed();

    // Same per-flow means as the evaluator's scoring.
    double tput = 0.0;
    double delay = 0.0;
    unsigned scored = 0;
    const sim::MetricsHub& metrics = net->metrics();
    for (sim::FlowId f = 0; f < config.num_senders; ++f) {
      const sim::FlowStats& fs = metrics.flow(f);
      p.add_flow(fs);
      if (fs.on_time_ms <= 0.0) continue;
      tput += fs.throughput_mbps();
      delay += fs.rtt_samples > 0 ? fs.avg_rtt_ms() : config.rtt_ms;
      ++scored;
    }
    if (scored > 0) {
      tput /= scored;
      delay /= scored;
    }
    const core::SpecimenResult want =
        evaluator.run_specimen(tree, config, seed);
    if (scored != want.senders_scored || tput != want.mean_throughput_mbps ||
        delay != want.mean_delay_ms) {
      r.fail(0, "sim probe: replay differs from Evaluator::run_specimen on " +
                    config.describe());
    }
  }
  return p;
}

}  // namespace

util::Json train_digest() {
  core::Trainer trainer{budget_range(), budget_options()};
  const Outcome o = outcome(trainer.run());
  util::JsonObject out;
  out["digest"] = o.digest;
  out["score"] = o.score;
  out["actions"] = o.actions;
  return util::Json{std::move(out)};
}

Result run_train_workload(const Options& opt) {
  Result r;
  const core::ConfigRange range = budget_range();
  const core::TrainerOptions base = budget_options();

  SetupSampler setup{[&] {
    const double t0 = now_s();
    const core::Trainer trainer{range, base};
    return now_s() - t0;  // construction only; joining the pool is not set-up
  }};

  // The budget's evaluator seed is fixed, so the recorded outcome applies
  // at every --seed; without a record the traced run still requires the
  // traced digest to equal the untraced one.
  std::optional<Outcome> want;
  if (opt.recorded.is_object() && opt.recorded.contains("train")) {
    const util::Json& rec = opt.recorded.at("train");
    const std::string key = std::to_string(kTrainSeed);
    if (rec.contains(key)) {
      want = Outcome{rec.at(key).at("digest").as_string(),
                     rec.at(key).at("score").as_string(), 0};
    }
  }

  // Each pass also splits Trainer::run at its progress-log lines (the
  // initial score, every improvement, the epoch end): the search is
  // deterministic, so stage k is the same work in every pass.
  std::optional<Outcome> untraced;
  std::size_t actions_per_pass = 0;
  std::vector<std::vector<double>> stage_s;  // [pass][stage]
  const double phase_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const std::vector<Pass> passes = repeat_passes(phase_s, setup, [&] {
    try {
      std::vector<double> stages;
      double mark = 0.0;
      core::TrainerOptions logged = base;
      logged.log = [&](const std::string&) {
        const double t = now_s();
        stages.push_back(t - mark);
        mark = t;
      };
      core::Trainer trainer{range, logged};
      mark = now_s();
      const Outcome o = outcome(trainer.run());
      stages.push_back(now_s() - mark);
      stage_s.push_back(std::move(stages));
      if (!untraced.has_value()) untraced = o;
      actions_per_pass = o.actions;
      check(o, want.value_or(*untraced), "train", r);
    } catch (const std::exception& e) {
      ++r.attempted;
      r.fail(1, std::string{"train: "} + e.what());
    }
  });
  if (!untraced.has_value()) return r;  // every pass threw
  // One pass's wall time as the sum of each stage's fastest time in this
  // run, as on the spec workloads: host interference only ever adds time.
  const double wall_s = sum_of_fastest(stage_s);
  if (!opt.trace) {
    report_end_to_end(setup.fastest(), wall_s, passes,
                      static_cast<double>(actions_per_pass), r);
    return r;
  }

  // Traced pass: the same budget, scored through the benchmark's own
  // evaluator and pool so each Evaluator::evaluate call gets a span.
  Recorder& rec = Recorder::get();
  rec.enable(true);
  set_alloc_counting(true);
  const core::Evaluator evaluator{range, base.eval};
  util::ThreadPool pool{kThreads};
  core::TrainerOptions traced = base;
  traced.batch_scorer = [&](const std::vector<core::WhiskerTree>& trees) {
    const Scope batch{"core.batch"};
    return pool.map(trees.size(), [&](std::size_t i) {
      const Scope span{"core.evaluate", batch.id()};
      return evaluator.evaluate(trees[i]).score;
    });
  };
  core::Trainer trainer{range, traced};
  double run_s = 0.0;
  std::uint64_t run_allocs = 0;
  Outcome got;
  SimCounts p;
  try {
    const Scope span{"core.trainer_run"};
    const std::uint64_t a0 = alloc_count().allocs;
    const double t0 = now_s();
    const core::TrainResult result = trainer.run();
    run_s = now_s() - t0;
    run_allocs = alloc_count().allocs - a0;
    got = outcome(result);
    check(got, want.value_or(*untraced), "train (traced)", r);
    p = probe_sim(evaluator, result.tree, r);
  } catch (const std::exception& e) {
    ++r.attempted;
    r.fail(1, std::string{"train (traced): "} + e.what());
  }
  set_alloc_counting(false);
  rec.enable(false);

  std::vector<double> eval_ms;
  double busy_s = 0.0;
  for (const Span& s : rec.named("core.evaluate")) {
    eval_ms.push_back(s.dur() * 1e3);
    busy_s += s.dur();
  }
  const double batch_s = rec.total_s("core.batch");
  r.set("core.evaluate_calls", static_cast<double>(eval_ms.size()), "count");
  r.set("core.evaluate_p50_ms", percentile(eval_ms, 50), "ms");
  r.set("core.evaluate_p95_ms", percentile(eval_ms, 95), "ms");
  r.set("core.pool_util",
        batch_s > 0 ? busy_s / (batch_s * static_cast<double>(kThreads)) : 0.0,
        "ratio");
  r.set("core.trainer_self_s", run_s - batch_s, "s");
  r.set("core.allocs_per_action",
        got.actions > 0 ? static_cast<double>(run_allocs) /
                              static_cast<double>(got.actions)
                        : 0.0,
        "count");

  p.report(r);
  report_proc(passes, wall_s, run_s, r);
  if (!opt.spans_out.empty()) rec.write(opt.spans_out);
  return r;
}

}  // namespace perfbench
