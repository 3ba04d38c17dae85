// The three daily workloads (paper, scaleup_daily, planet_sharded) and the
// traced single-calendar run the campaign_server workload reuses for its
// references. Each rep makes the calls `ecocloud_cli run-daily` makes —
// config -> scenario or sharded runner -> run -> binary event log and series
// CSV — and times them from outside.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "workloads.hpp"
#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/dc/monitor_kernel.hpp"
#include "ecocloud/metrics/event_log.hpp"
#include "ecocloud/metrics/event_log_binary.hpp"
#include "ecocloud/obs/progress.hpp"
#include "ecocloud/par/sharded_runner.hpp"
#include "ecocloud/scenario/config_io.hpp"
#include "ecocloud/trace/streaming_traces.hpp"
#include "ecocloud/trace/trace_set.hpp"
#include "ecocloud/util/csv.hpp"

namespace ecocloud::perfbench {

namespace {

/// K = 8 shards on at most 4 threads: the host this benchmark was defined
/// on has 4 cores, and the output is byte-identical for any thread count.
par::ParConfig planet_par(const Options& options) {
  par::ParConfig par;
  par.shards = options.smoke ? 4 : 8;
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  par.threads = std::min<std::size_t>(options.smoke ? 2 : 4, cores);
  return par;
}

scenario::DailyConfig parse_daily(const std::string& text) {
  std::istringstream in(text);
  return scenario::load_daily_config(in);
}

scenario::ConsolidationConfig consolidation_config(const Options& options) {
  std::istringstream in(
      std::string(options.smoke ? "servers = 20\ninitial_vms = 300\nhorizon_hours = 2\n"
                                : "") +
      "seed = " + std::to_string(options.seed) + "\n");
  return scenario::load_consolidation_config(in);
}

/// The CLI's --csv series format.
void write_series_csv(const std::string& path,
                      const std::vector<metrics::Sample>& samples) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  util::CsvWriter csv(out);
  csv.header({"time_s", "active_servers", "booting", "overall_load", "power_w",
              "overload_percent", "window_energy_j"});
  for (const auto& s : samples) {
    csv.row(std::vector<double>{s.time, static_cast<double>(s.active_servers),
                                static_cast<double>(s.booting_servers),
                                s.overall_load, s.power_w, s.overload_percent,
                                s.window_energy_j});
  }
}

/// The CLI's default --events format: the compact binary log.
void write_events(const std::string& path,
                  const std::vector<metrics::Event>& events) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  metrics::write_binary_events(out, events);
}

/// The share of the traced rep's wall its top-level spans cover (false
/// when they miss more than 2 %), and the traced wall for the overhead
/// ratio — less the checkpoint save, a call the untraced rep never makes.
bool span_coverage(const Spans& spans, int rep, Result& out) {
  const double wall = spans.seconds(rep);
  const double coverage = wall > 0.0 ? spans.children_seconds(rep) / wall : 0.0;
  const std::vector<double> saves = spans.durations("ckpt.save");
  out.num("traced_wall_s", wall - std::accumulate(saves.begin(), saves.end(), 0.0));
  out.num("trace.span_coverage", coverage);
  return coverage >= 0.98 && coverage <= 1.02;
}

// --- paper / scaleup_daily --------------------------------------------------

void single_rep(const Options& options, Result& out) {
  const scenario::DailyConfig config = parse_daily(daily_config_text(options, options.seed));
  const bool paper = options.workload == "paper";
  const std::string events_path = options.workdir + "/events.bin";
  const std::string series_path = options.workdir + "/series.csv";

  const auto t0 = Clock::now();
  auto single = std::make_unique<Single>(config);
  const auto t1 = Clock::now();
  double setup_s = seconds_between(t0, t1);
  double wall_s = 0.0;
  std::uint64_t events = 0;
  if (options.mode == "run") {
    single->daily->run();
    write_events(events_path, single->log.events());
    write_series_csv(series_path, single->daily->collector().samples());
    wall_s = seconds_between(t0, Clock::now());
    events = single->daily->simulator().executed_events();
  }
  single.reset();

  if (paper) {
    // Sec. IV back to back with Sec. III: the create/destroy path of dc.
    const scenario::ConsolidationConfig cc = consolidation_config(options);
    const std::string cons_path = options.workdir + "/consolidation.csv";
    const auto c0 = Clock::now();
    scenario::ConsolidationScenario cons(cc);
    const auto c1 = Clock::now();
    setup_s += seconds_between(c0, c1);
    if (options.mode == "run") {
      cons.run();
      write_series_csv(cons_path, cons.collector().samples());
      wall_s += seconds_between(c0, Clock::now());
      events += cons.simulator().executed_events();
      out.digest("digest.consolidation_series", digest_file(cons_path));
    }
  }
  out.num("setup_s", setup_s);
  if (options.mode != "run") return;
  out.num("wall_s", wall_s);
  out.num("events_per_s", static_cast<double>(events) / wall_s);
  out.num("peak_rss_mb", obs::peak_rss_mb());
  out.count("events", events);
  out.digest("digest.events", digest_file(events_path));
  out.digest("digest.series", digest_file(series_path));
  if (paper) out.digest("digest.events_csv", digest_binary_event_log(events_path));
}

void single_traced_rep(const Options& options, Result& out) {
  const scenario::DailyConfig config = parse_daily(daily_config_text(options, options.seed));
  const bool paper = options.workload == "paper";
  const std::string snapshot = options.workdir + "/snapshot.ckpt";
  Spans spans;
  Layers layers;

  const scenario::ConsolidationConfig cc = consolidation_config(options);  // paper only

  const int rep = spans.begin("rep", -1, 1);
  std::unique_ptr<Single> single =
      traced_single_run(config, options.workdir, spans, rep, layers, snapshot);
  if (paper) {
    SpanScope whole(&spans, "scenario.consolidation", rep);
    std::unique_ptr<scenario::ConsolidationScenario> cons;
    {
      SpanScope s(&spans, "scenario.consolidation.construct", whole.id());
      cons = std::make_unique<scenario::ConsolidationScenario>(cc);
    }
    {
      SpanScope s(&spans, "scenario.consolidation.run", whole.id());
      cons->run();
    }
    SpanScope s(&spans, "metrics.write_series", whole.id());
    write_series_csv(options.workdir + "/consolidation.csv", cons->collector().samples());
    s.close();
    cons.reset();
    out.num("scenario.consolidation_s", whole.close());
  }
  spans.end(rep);
  bool ok = span_coverage(spans, rep, out);
  classify_layer(single->daily->datacenter(), config.params, spans, out);
  single.reset();

  // The paper run is cheap enough to finish the restored copy and compare
  // its whole event log; the scale-up one compares re-saved bytes only.
  ok &= restore_check(config, options.workdir, snapshot, paper, spans, layers);
  standalone_layers(config, 1, spans, out);
  layers.emit(out);
  const std::string events_path = options.workdir + "/events.bin";
  out.digest("digest.events", digest_file(events_path));
  if (paper) out.digest("digest.events_csv", digest_binary_event_log(events_path));
  out.flag("check.traced", ok);
  if (!options.trace_out.empty()) spans.write_chrome_trace(options.trace_out);
}

// --- planet_sharded ---------------------------------------------------------

void add_sharded_counts(Layers& layers, par::ShardedDailyRun& run) {
  const par::ParStats& stats = run.stats();
  layers.events += stats.executed_events;
  for (std::size_t k = 0; k < run.num_shards(); ++k) {
    layers.add_controller(run.shard(k).controller());
  }
  // The runner's totals include the coordinator's cross-shard migrations.
  layers.migrations_low = stats.low_migrations;
  layers.migrations_high = stats.high_migrations;
  layers.activations += stats.activations;
  layers.hibernations += stats.hibernations;
  layers.energy_kwh += run.total_energy_kwh();
}

void write_sharded_outputs(par::ShardedDailyRun& run, const std::string& events_path,
                           const std::string& series_path, Spans* spans, int parent) {
  {
    SpanScope s(spans, "metrics.write_events", parent);
    std::ofstream out(events_path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot write " + events_path);
    run.write_events_binary(out);
  }
  SpanScope s(spans, "metrics.write_series", parent);
  write_series_csv(series_path, run.merged_samples());
}

void sharded_rep(const Options& options, Result& out) {
  const scenario::DailyConfig config = parse_daily(daily_config_text(options, options.seed));
  const std::string events_path = options.workdir + "/events.bin";
  const std::string series_path = options.workdir + "/series.csv";

  const auto t0 = Clock::now();
  par::ShardedDailyRun run(config, planet_par(options));
  const auto t1 = Clock::now();
  out.num("setup_s", seconds_between(t0, t1));
  if (options.mode != "run") return;
  run.run();
  write_sharded_outputs(run, events_path, series_path, nullptr, -1);
  const double wall_s = seconds_between(t0, Clock::now());
  const std::uint64_t events = run.stats().executed_events;
  out.num("wall_s", wall_s);
  out.num("events_per_s", static_cast<double>(events) / wall_s);
  out.num("peak_rss_mb", obs::peak_rss_mb());
  out.count("events", events);
  out.digest("digest.events", digest_file(events_path));
  out.digest("digest.series", digest_file(series_path));
}

/// Per-epoch shard times read in on_barrier, where the runner has just
/// measured them; the epoch spans themselves are Layers::start_s (the
/// first epoch) and Layers::slice_s.
struct EpochProbe {
  std::vector<double> max_shard_s, busy_s, lag_s;
};

void emit_par(const EpochProbe& probe, const Layers& layers,
              const par::ParConfig& par, const par::ParStats& stats, Result& out) {
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  const double span = sum(layers.start_s) + sum(layers.slice_s);
  const double critical = sum(probe.max_shard_s);
  const double busy = sum(probe.busy_s);
  out.count("par.epochs", stats.barriers);
  out.num("par.critical_path_s", critical);
  out.num("par.shard_busy_s", busy);
  out.num("par.serial_s", span - critical);
  out.num("par.imbalance_ratio",
          busy > 0.0 ? critical * static_cast<double>(par.shards) / busy : 0.0);
  // Busy shard time over the thread time the epochs held. (With K above
  // the thread count, busy / (threads x critical path) can exceed 1.)
  out.num("par.parallel_efficiency",
          span > 0.0 ? busy / (static_cast<double>(par.threads) * span) : 0.0);
  out.num("par.barrier_lag_p95_ms", 1e3 * quantile(probe.lag_s, 0.95));
  out.num("par.first_epoch_s", sum(layers.start_s));
  out.count("par.handoff_attempts", stats.handoff_attempts);
  out.count("par.cross_shard_migrations", stats.cross_shard_migrations);
  out.num("par.handoff_success_ratio",
          stats.handoff_attempts > 0
              ? static_cast<double>(stats.cross_shard_migrations) /
                    static_cast<double>(stats.handoff_attempts)
              : 0.0);
}

void sharded_traced_rep(const Options& options, Result& out) {
  const scenario::DailyConfig config = parse_daily(daily_config_text(options, options.seed));
  const par::ParConfig par = planet_par(options);
  const std::string events_path = options.workdir + "/events.bin";
  const std::string series_path = options.workdir + "/series.csv";
  const std::string snapshot = options.workdir + "/snapshot.ckpt";
  Spans spans;
  Layers layers;
  EpochProbe probe;

  const int rep = spans.begin("rep", -1, 1);
  std::unique_ptr<par::ShardedDailyRun> run;
  {
    SpanScope s(&spans, "scenario.construct", rep);
    run = std::make_unique<par::ShardedDailyRun>(config, par);
  }
  layers.construct_s = spans.durations("scenario.construct");
  layers.rss_after_setup_mb = obs::peak_rss_mb();

  const int run_span = spans.begin("scenario.run", rep);
  // The first epoch carries the t = 0 deploy wave: it is the sharded
  // counterpart of DailyScenario::start(). Later epochs are the slices.
  Clock::time_point epoch_start = Clock::now();
  bool saved = false;
  run->on_barrier = [&](sim::SimTime t) {
    const bool first = layers.start_s.empty();
    const int id = spans.add(first ? "scenario.start" : "sim.epoch", epoch_start,
                             Clock::now(), run_span);
    (first ? layers.start_s : layers.slice_s).push_back(spans.seconds(id));
    const std::vector<double>& walls = run->last_epoch_wall_s();
    probe.max_shard_s.push_back(*std::max_element(walls.begin(), walls.end()));
    probe.busy_s.push_back(std::accumulate(walls.begin(), walls.end(), 0.0));
    for (const double lag : run->last_barrier_lag_s()) probe.lag_s.push_back(lag);
    if (!saved && t >= config.warmup_s) {
      SpanScope s(&spans, "ckpt.save", run_span);
      run->save_snapshot(snapshot);
      saved = true;
    }
    epoch_start = Clock::now();
  };
  const std::uint64_t allocs = allocation_count();
  run->run();
  layers.allocations = allocation_count() - allocs;
  spans.add("scenario.finish", epoch_start, Clock::now(), run_span);
  spans.end(run_span);
  layers.run_s.push_back(std::accumulate(layers.slice_s.begin(), layers.slice_s.end(), 0.0));
  layers.save_s = spans.durations("ckpt.save");
  add_sharded_counts(layers, *run);
  {
    SpanScope s(&spans, "metrics.outputs", rep);
    write_sharded_outputs(*run, events_path, series_path, &spans, s.id());
  }
  spans.end(rep);
  layers.write_events_s = spans.durations("metrics.write_events");
  layers.write_series_s = spans.durations("metrics.write_series");
  layers.events_bytes = file_bytes(events_path);
  bool ok = span_coverage(spans, rep, out);
  emit_par(probe, layers, par, run->stats(), out);
  classify_layer(run->shard(0).datacenter(), config.params, spans, out);
  run.reset();
  {
    par::ShardedDailyRun fresh(config, par);
    SpanScope s(&spans, "ckpt.restore");
    fresh.restore_snapshot(snapshot);
    layers.restore_s.push_back(s.close());
    fresh.save_snapshot(snapshot + ".resave");
    ok &= same_bytes(snapshot, snapshot + ".resave");
  }
  layers.snapshot_bytes = file_bytes(snapshot);
  standalone_layers(config, par.shards, spans, out);
  layers.emit(out);
  out.digest("digest.events", digest_file(events_path));
  out.flag("check.traced", ok);
  if (!options.trace_out.empty()) spans.write_chrome_trace(options.trace_out);
}

}  // namespace

void Layers::add_controller(core::EcoCloudController& eco) {
  const core::MessageLog& m = eco.messages();
  invitations += m.invitations_sent;
  messages += m.total();
  // Useful outcomes of an invitation round: a VM placed or migrated.
  placements += m.placement_commands + m.migration_commands;
  const core::BernoulliTally& fa = eco.assignment().fa_tally();
  const core::BernoulliTally& fl = eco.migration().fl_tally();
  const core::BernoulliTally& fh = eco.migration().fh_tally();
  fa_accepts += fa.accepts;
  fa_trials += fa.trials();
  fl_accepts += fl.accepts;
  fl_trials += fl.trials();
  fh_accepts += fh.accepts;
  fh_trials += fh.trials();
  migrations_low += eco.low_migrations();
  migrations_high += eco.high_migrations();
  assignment_failures += eco.assignment_failures();
  wake_ups += eco.wake_ups();
}

void Layers::emit(Result& out) const {
  const auto median = [](const std::vector<double>& v) { return quantile(v, 0.5); };
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  const double run_total = std::accumulate(run_s.begin(), run_s.end(), 0.0);
  out.num("scenario.construct_s", median(construct_s));
  out.num("scenario.start_s", median(start_s));
  out.num("sim.run_s", median(run_s));
  out.num("sim.slice_p50_ms", 1e3 * quantile(slice_s, 0.5));
  out.num("sim.slice_p95_ms", 1e3 * quantile(slice_s, 0.95));
  out.count("sim.events", events);
  out.num("sim.ns_per_event", events > 0 ? run_total * 1e9 / static_cast<double>(events) : 0.0);
  out.count("core.invitations", invitations);
  out.count("core.messages", messages);
  out.count("core.placements", placements);
  out.num("core.invitations_per_placement", ratio(invitations, placements));
  out.num("core.fa_accept_ratio", ratio(fa_accepts, fa_trials));
  out.num("core.fl_accept_ratio", ratio(fl_accepts, fl_trials));
  out.num("core.fh_accept_ratio", ratio(fh_accepts, fh_trials));
  out.count("core.migrations_low", migrations_low);
  out.count("core.migrations_high", migrations_high);
  out.count("core.assignment_failures", assignment_failures);
  out.count("core.wake_ups", wake_ups);
  out.count("dc.activations", activations);
  out.count("dc.hibernations", hibernations);
  out.num("dc.energy_kwh", energy_kwh);
  out.num("metrics.write_events_s", median(write_events_s));
  out.count("metrics.events_bytes", events_bytes);
  out.num("metrics.write_series_s", median(write_series_s));
  out.num("ckpt.save_s", median(save_s));
  out.count("ckpt.snapshot_bytes", snapshot_bytes);
  out.num("ckpt.restore_s", median(restore_s));
  out.num("util.allocs_per_event", ratio(allocations, events));
  out.num("util.rss_after_setup_mb", rss_after_setup_mb);
}

std::string daily_config_text(const Options& options, std::uint64_t seed) {
  const bool smoke = options.smoke;
  std::string text;
  if (options.workload == "paper") {
    // DailyConfig defaults: 400 servers, 6,000 VMs, 48 h including warm-up.
    text = smoke ? "servers = 40\nvms = 500\nhorizon_hours = 6\nwarmup_hours = 1\n"
                 : "warmup_hours = 6\n";
  } else if (options.workload == "scaleup_daily") {
    text = smoke ? "servers = 80\nvms = 1200\nhorizon_hours = 4\nwarmup_hours = 1\n"
                 : "servers = 4000\nvms = 60000\nhorizon_hours = 18\nwarmup_hours = 6\n";
  } else if (options.workload == "planet_sharded") {
    text = std::string(smoke ? "servers = 800\nvms = 12000\nhorizon_hours = 2\n"
                             : "servers = 100000\nvms = 1500000\nhorizon_hours = 2\n") +
           "warmup_hours = 1\nfast_sampler = true\ninvite_group_size = 64\n"
           "streaming_traces = true\n";
  } else if (options.workload == "campaign_server") {
    // The campaign of the control-plane overhead measurement (EXPERIMENTS.md).
    text = smoke ? "servers = 20\nvms = 300\nhorizon_hours = 2\n"
                 : "servers = 100\nvms = 1500\nhorizon_hours = 48\n";
  } else {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  return text + "seed = " + std::to_string(seed) + "\n";
}

Single::Single(const scenario::DailyConfig& config)
    : daily(std::make_unique<scenario::DailyScenario>(config)) {
  log.attach(*daily->ecocloud());
}

void Single::wire_checkpoint() {
  manager = std::make_unique<ckpt::CheckpointManager>(daily->simulator());
  daily->register_checkpoint(*manager);
  manager->add_section(
      "event_log", [this](util::BinWriter& w) { log.save_state(w); },
      [this](util::BinReader& r) { log.load_state(r); });
}

std::unique_ptr<Single> traced_single_run(const scenario::DailyConfig& config,
                                          const std::string& dir, Spans& spans,
                                          int parent, Layers& layers,
                                          const std::string& snapshot_path) {
  const std::string events_path = dir + "/events.bin";
  std::unique_ptr<Single> single;
  {
    SpanScope s(&spans, "scenario.construct", parent);
    single = std::make_unique<Single>(config);
    layers.rss_after_setup_mb = std::max(layers.rss_after_setup_mb, obs::peak_rss_mb());
    layers.construct_s.push_back(s.close());
  }
  scenario::DailyScenario& daily = *single->daily;

  const double save_at = config.warmup_s > 0.0
                             ? config.warmup_s
                             : std::floor(config.horizon_s / 2.0 / kSliceS) * kSliceS;
  SpanScope run(&spans, "scenario.run", parent);
  if (!snapshot_path.empty()) single->wire_checkpoint();
  const std::uint64_t allocs = allocation_count();
  {
    SpanScope s(&spans, "scenario.start", run.id());
    daily.start();
    layers.start_s.push_back(s.close());
  }
  double run_total = 0.0;
  for (double t = kSliceS;; t += kSliceS) {
    SpanScope slice(&spans, "sim.run_slice", run.id());
    const bool done = daily.run_slice(t);
    layers.slice_s.push_back(slice.close());
    run_total += layers.slice_s.back();
    if (!snapshot_path.empty() && t == save_at) {
      SpanScope s(&spans, "ckpt.save", run.id());
      single->manager->save(snapshot_path);
      layers.save_s.push_back(s.close());
    }
    if (done) break;
  }
  {
    SpanScope s(&spans, "scenario.finish", run.id());
    daily.finish();
  }
  layers.allocations += allocation_count() - allocs;
  run.close();
  layers.run_s.push_back(run_total);
  layers.events += daily.simulator().executed_events();
  layers.add_controller(*daily.ecocloud());
  layers.activations += daily.datacenter().total_activations();
  layers.hibernations += daily.datacenter().total_hibernations();
  layers.energy_kwh += daily.datacenter().energy_joules() / 3.6e6;

  SpanScope outputs(&spans, "metrics.outputs", parent);
  {
    SpanScope s(&spans, "metrics.write_events", outputs.id());
    write_events(events_path, single->log.events());
    layers.write_events_s.push_back(s.close());
  }
  SpanScope s(&spans, "metrics.write_series", outputs.id());
  write_series_csv(dir + "/series.csv", daily.collector().samples());
  layers.write_series_s.push_back(s.close());
  layers.events_bytes += file_bytes(events_path);
  return single;
}

bool restore_check(const scenario::DailyConfig& config, const std::string& dir,
                   const std::string& snapshot_path, bool finish_restored,
                   Spans& spans, Layers& layers) {
  Single fresh(config);
  fresh.wire_checkpoint();
  {
    SpanScope s(&spans, "ckpt.restore");
    fresh.manager->restore(snapshot_path);
    layers.restore_s.push_back(s.close());
  }
  layers.snapshot_bytes += file_bytes(snapshot_path);

  const std::string resave = snapshot_path + ".resave";
  fresh.manager->save(resave);
  bool ok = same_bytes(snapshot_path, resave);
  if (finish_restored) {
    SpanScope s(&spans, "ckpt.resumed_run");
    fresh.daily->run_resumed();
    const std::string resumed = dir + "/resumed_events.bin";
    write_events(resumed, fresh.log.events());
    ok &= same_bytes(resumed, dir + "/events.bin");
  }
  return ok;
}

void standalone_layers(const scenario::DailyConfig& config, std::size_t shards,
                       Spans& spans, Result& out) {
  const trace::WorkloadModel model(config.workload);
  // The step count DailyScenario generates for its horizon.
  const auto steps =
      static_cast<std::size_t>(config.horizon_s / config.workload.sample_period_s) + 2;
  {
    // The span closes before the generated traces are freed.
    util::Rng rng(config.seed);
    SpanScope s(&spans, "trace.generate");
    if (config.streaming_traces) {
      const auto banks = trace::StreamingTraces::generate_partitioned(
          model, config.num_vms, steps, rng, shards);
      out.num("trace.generate_s", s.close());
    } else {
      const auto set = trace::TraceSet::generate(model, config.num_vms, steps, rng);
      out.num("trace.generate_s", s.close());
    }
  }
  {
    const std::size_t per_shard = (config.num_vms + shards - 1) / shards;
    util::Rng rng(config.seed);
    auto bank = trace::StreamingTraces::generate(model, per_shard, steps, rng);
    SpanScope s(&spans, "trace.advance");
    bank.advance_to(steps - 1);
    out.num("trace.advance_ns_per_vm_step",
            s.close() * 1e9 / static_cast<double>(per_shard * (steps - 1)));
  }
  {
    // Small fleets build in microseconds: repeat until the median is
    // over at least 5 builds and 50 ms of work.
    std::vector<double> builds;
    double total = 0.0;
    const SpanScope s(&spans, "dc.build_fleet");
    while (builds.size() < 5 || total < 0.05) {
      dc::DataCenter d;
      const auto t0 = Clock::now();
      scenario::build_fleet(d, config.fleet);
      builds.push_back(seconds_between(t0, Clock::now()));
      total += builds.back();
    }
    out.num("dc.build_fleet_s", quantile(builds, 0.5));
  }
}

void classify_layer(const dc::DataCenter& d, const core::EcoCloudParams& params,
                    Spans& spans, Result& out) {
  constexpr int kPasses = 1000;
  const std::size_t n = d.num_servers();
  std::vector<double> u(n);
  std::vector<std::uint8_t> cls(n);
  SpanScope s(&spans, "dc.classify");
  for (int pass = 0; pass < kPasses; ++pass) {
    dc::monitor_classify(d.servers_soa(), 0, n, params.tl, params.th, u.data(),
                         cls.data());
  }
  out.num("dc.classify_ns_per_server",
          s.close() * 1e9 / (static_cast<double>(n) * kPasses));
}

void run_daily_workload(const Options& options, Result& out) {
  const bool sharded = options.workload == "planet_sharded";
  if (options.traced && options.mode == "run") {
    sharded ? sharded_traced_rep(options, out) : single_traced_rep(options, out);
  } else {
    sharded ? sharded_rep(options, out) : single_rep(options, out);
  }
}

}  // namespace ecocloud::perfbench
