// Engine-throughput benchmark: how many simulator events per second the
// ecoCloud engine sustains on trace-driven daily scenarios. Unlike the
// figure benches this one measures the *simulation engine itself* — the
// event calendar, the per-state server indices, the controller hot path —
// so the numbers are tracked across PRs via BENCH_engine.json.
//
// Scenarios:
//   paper      — the paper's Sec. III experiment: 400 servers / 6,000 VMs /
//                48 h (+ 6 h warm-up).
//   scaleup    — 10x the paper: 4,000 servers / 60,000 VMs / 48 h, where any
//                O(num_servers) cost on the per-event path dominates.
//   sharded    — the scaleup fleet through the sharded parallel engine
//                (par::ShardedDailyRun), one row per entry of the
//                --threads list at a fixed --shards count.
//   scaleup16k — 40x the paper: 16,000 servers / 240,000 VMs / 48 h, run
//                both single-threaded and sharded.
//   planet100k — 100,000 servers / 1.5M VMs on a short horizon, run single
//                and sharded; both rows use the O(1) sampler with
//                invite_group_size = 64.
//   planet1m   — 1,000,000 servers / 15M VMs, single only (one row is
//                enough to track the per-event hot path).
// Every row streams its traces (O(VMs) cursor banks, DESIGN.md §14).
//   ci         — reduced smoke: 100 servers / 1,500 VMs / 6 h (CI runners).
//
// Output: one JSON object per run (events, set-up seconds — the scenario
// or runner constructor, trace generation included — wall seconds of the
// run after it, events/sec, the row's own peak RSS (VmHWM is reset before
// each row), heap allocations, execution mode/shards/threads) written to
// --out (default BENCH_engine.json). The file also records
// host_hardware_threads — sharded-mode wall times are only meaningful
// relative to that number; on a single-core host every thread count
// serializes onto the same core and the matrix degenerates to overhead
// measurement — plus host_cpu_model and the monitor kernel the dispatcher
// picked ("avx2"/"scalar"), without which throughput rows are not
// comparable across hosts. CI fails on crash or malformed JSON only —
// never on wall time.

#include "bench_common.hpp"


#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ecocloud/dc/monitor_kernel.hpp"
#include "ecocloud/par/sharded_runner.hpp"
#include "ecocloud/util/phase_profiler.hpp"

// Heap-allocation counter: the engine claims "no allocation per event", so
// the bench counts global operator new calls around each run. Replacing
// operator new is binary-wide, which is exactly the scope we want here.
namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace ecocloud;

// --profile: wrap each run in the phase profiler and report the per-phase
// wall-time split plus the profiler's self-measured overhead ratio, which
// the CI perf-smoke leg holds to the <= 3% budget.
bool g_profile = false;

// --repeat N: run every row N times and keep the fastest attempt. Wall
// clocks on shared hosts carry tens of percent of neighbor noise that
// only ever ADDS time, so the minimum is the defensible throughput
// figure — the same reasoning behind the CI overhead budget's min-of-3.
// Every attempt still prints its CSV row; only the best lands in the
// JSON.
unsigned g_repeat = 1;

struct ProfileResult {
  bool enabled = false;
  double overhead_ratio = 0.0;
  double phase_seconds[util::kNumPhases] = {};
  std::uint64_t phase_calls[util::kNumPhases] = {};
};

ProfileResult profile_result(const util::PhaseProfiler& profiler,
                             double wall_s) {
  ProfileResult out;
  out.enabled = true;
  out.overhead_ratio =
      wall_s > 0.0 ? profiler.overhead_seconds() / wall_s : 0.0;
  for (std::size_t p = 0; p < util::kNumPhases; ++p) {
    const util::PhaseStats st = profiler.total(static_cast<util::Phase>(p));
    out.phase_seconds[p] = st.estimated_ns() * 1e-9;
    out.phase_calls[p] = st.calls;
  }
  return out;
}

/// "model name" from /proc/cpuinfo — throughput rows are meaningless
/// across hosts without it. "unknown" off Linux or in stripped containers.
std::string host_cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (!f) return "unknown";
  std::string model = "unknown";
  char line[512];
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    if (const char* colon = std::strchr(line, ':')) {
      model.assign(colon + 1);
      while (!model.empty() && (model.front() == ' ' || model.front() == '\t'))
        model.erase(model.begin());
      while (!model.empty() && (model.back() == '\n' || model.back() == '\r' ||
                                model.back() == ' '))
        model.pop_back();
      for (char& c : model)
        if (c == '"' || c == '\\') c = '\'';  // keep the JSON trivially valid
    }
    break;
  }
  std::fclose(f);
  return model;
}

struct EngineRun {
  std::string name;
  std::string mode = "single";  // "single" | "sharded"
  std::size_t shards = 1;
  std::size_t threads = 1;
  std::size_t servers = 0;
  std::size_t vms = 0;
  double sim_hours = 0.0;  // reported horizon, warm-up excluded
  std::uint64_t events = 0;
  double setup_s = 0.0;  // the scenario / runner constructor, traces included
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t allocations = 0;
  std::uint64_t migrations = 0;
  std::uint64_t cross_shard_migrations = 0;
  double energy_kwh = 0.0;
  ProfileResult profile;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

void print_row(const EngineRun& r) {
  std::printf("%s,%s,%zu,%zu,%zu,%zu,%.0f,%llu,%.3f,%.0f,%.1f,%llu\n",
              r.name.c_str(), r.mode.c_str(), r.shards, r.threads, r.servers,
              r.vms, r.sim_hours, static_cast<unsigned long long>(r.events),
              r.wall_s, r.events_per_sec, r.peak_rss_mb,
              static_cast<unsigned long long>(r.allocations));
}

EngineRun run_scenario_config_once(const char* name,
                                   scenario::DailyConfig config, double hours) {
  EngineRun out;
  out.name = name;
  out.servers = config.fleet.num_servers;
  out.vms = config.num_vms;
  out.sim_hours = hours;

  bench::reset_peak_rss();
  const auto setup_start = std::chrono::steady_clock::now();
  scenario::DailyScenario daily(std::move(config));
  out.setup_s = seconds_since(setup_start);

  std::optional<util::PhaseProfiler> profiler;
  if (g_profile) profiler.emplace(1);

  const std::uint64_t allocs_before =
      g_allocation_count.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  {
    util::DomainScope scope(profiler ? &profiler->domain(0) : nullptr);
    daily.run();
  }
  const auto stop = std::chrono::steady_clock::now();
  out.allocations =
      g_allocation_count.load(std::memory_order_relaxed) - allocs_before;

  out.events = daily.simulator().executed_events();
  out.wall_s = std::chrono::duration<double>(stop - start).count();
  if (profiler) out.profile = profile_result(*profiler, out.wall_s);
  out.events_per_sec =
      out.wall_s > 0.0 ? static_cast<double>(out.events) / out.wall_s : 0.0;
  out.peak_rss_mb = bench::peak_rss_mb();
  out.migrations = daily.datacenter().total_migrations();
  out.energy_kwh = daily.datacenter().energy_joules() / 3.6e6;
  print_row(out);
  return out;
}

EngineRun run_scenario_config(const char* name,
                              const scenario::DailyConfig& config,
                              double hours) {
  EngineRun best = run_scenario_config_once(name, config, hours);
  for (unsigned i = 1; i < g_repeat; ++i) {
    EngineRun next = run_scenario_config_once(name, config, hours);
    if (next.wall_s < best.wall_s) best = next;
  }
  return best;
}

EngineRun run_scenario(const char* name, std::size_t servers, std::size_t vms,
                       double hours) {
  return run_scenario_config(name, bench::scaled_daily_config(servers, vms, hours),
                             hours);
}

// Planet-tier configuration: the compat sampler broadcasts every invitation
// to the whole active fleet, which is O(servers) per deploy and would turn
// these rows into a measurement of that known quadratic — so the planet
// rows run the O(1) sampler with a bounded invite group (DESIGN.md §14).
scenario::DailyConfig planet_daily_config(std::size_t servers, std::size_t vms,
                                          double hours, double warmup_hours) {
  scenario::DailyConfig config = bench::scaled_daily_config(
      servers, vms, hours, warmup_hours * sim::kHour);
  config.params.fast_sampler = true;
  config.params.invite_group_size = 64;
  return config;
}

EngineRun run_sharded_scenario_config_once(const char* name,
                                           const scenario::DailyConfig& config,
                                           double hours, std::size_t shards,
                                           std::size_t threads) {
  EngineRun out;
  out.name = name;
  out.mode = "sharded";
  out.shards = shards;
  out.threads = threads;
  out.servers = config.fleet.num_servers;
  out.vms = config.num_vms;
  out.sim_hours = hours;

  bench::reset_peak_rss();
  const auto setup_start = std::chrono::steady_clock::now();
  par::ShardedDailyRun run(config, {.shards = shards, .threads = threads});
  out.setup_s = seconds_since(setup_start);

  std::optional<util::PhaseProfiler> profiler;
  if (g_profile) {
    profiler.emplace(shards + 1);
    run.set_profiler(&*profiler);
  }

  const std::uint64_t allocs_before =
      g_allocation_count.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  run.run();
  const auto stop = std::chrono::steady_clock::now();
  out.allocations =
      g_allocation_count.load(std::memory_order_relaxed) - allocs_before;

  out.events = run.stats().executed_events;
  out.wall_s = std::chrono::duration<double>(stop - start).count();
  if (profiler) out.profile = profile_result(*profiler, out.wall_s);
  out.events_per_sec =
      out.wall_s > 0.0 ? static_cast<double>(out.events) / out.wall_s : 0.0;
  out.peak_rss_mb = bench::peak_rss_mb();
  out.migrations = run.stats().migrations;
  out.cross_shard_migrations = run.stats().cross_shard_migrations;
  out.energy_kwh = run.total_energy_kwh();
  print_row(out);
  return out;
}

EngineRun run_sharded_scenario_config(const char* name,
                                      const scenario::DailyConfig& config,
                                      double hours, std::size_t shards,
                                      std::size_t threads) {
  EngineRun best =
      run_sharded_scenario_config_once(name, config, hours, shards, threads);
  for (unsigned i = 1; i < g_repeat; ++i) {
    EngineRun next =
        run_sharded_scenario_config_once(name, config, hours, shards, threads);
    if (next.wall_s < best.wall_s) best = next;
  }
  return best;
}

EngineRun run_sharded_scenario(const char* name, std::size_t servers,
                               std::size_t vms, double hours,
                               std::size_t shards, std::size_t threads) {
  return run_sharded_scenario_config(
      name, bench::scaled_daily_config(servers, vms, hours), hours, shards,
      threads);
}

void write_json(const std::string& path, const std::vector<EngineRun>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_perf_engine: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"engine_throughput\",\n"
               "  \"host_hardware_threads\": %u,\n"
               "  \"host_cpu_model\": \"%s\",\n"
               "  \"monitor_kernel\": \"%s\",\n"
               "  \"repeat\": %u,\n  \"runs\": [\n",
               std::thread::hardware_concurrency(), host_cpu_model().c_str(),
               dc::monitor_kernel_name(), g_repeat);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const EngineRun& r = runs[i];
    std::fprintf(f,
                 "    {\n"
                 "      \"name\": \"%s\",\n"
                 "      \"mode\": \"%s\",\n"
                 "      \"shards\": %zu,\n"
                 "      \"threads\": %zu,\n"
                 "      \"servers\": %zu,\n"
                 "      \"vms\": %zu,\n"
                 "      \"sim_hours\": %.1f,\n"
                 "      \"events\": %llu,\n"
                 "      \"setup_seconds\": %.6f,\n"
                 "      \"wall_seconds\": %.3f,\n"
                 "      \"events_per_sec\": %.1f,\n"
                 "      \"peak_rss_mb\": %.1f,\n"
                 "      \"allocations\": %llu,\n"
                 "      \"allocations_per_event\": %.4f,\n"
                 "      \"migrations\": %llu,\n"
                 "      \"cross_shard_migrations\": %llu,\n"
                 "      \"energy_kwh\": %.3f%s\n",
                 r.name.c_str(), r.mode.c_str(), r.shards, r.threads,
                 r.servers, r.vms, r.sim_hours,
                 static_cast<unsigned long long>(r.events), r.setup_s, r.wall_s,
                 r.events_per_sec, r.peak_rss_mb,
                 static_cast<unsigned long long>(r.allocations),
                 r.events > 0
                     ? static_cast<double>(r.allocations) /
                           static_cast<double>(r.events)
                     : 0.0,
                 static_cast<unsigned long long>(r.migrations),
                 static_cast<unsigned long long>(r.cross_shard_migrations),
                 r.energy_kwh, r.profile.enabled ? "," : "");
    if (r.profile.enabled) {
      std::fprintf(f,
                   "      \"profile\": {\n"
                   "        \"overhead_ratio\": %.6f,\n"
                   "        \"phases\": {\n",
                   r.profile.overhead_ratio);
      for (std::size_t p = 0; p < util::kNumPhases; ++p) {
        std::fprintf(
            f, "          \"%s\": {\"seconds\": %.6f, \"calls\": %llu}%s\n",
            util::to_string(static_cast<util::Phase>(p)),
            r.profile.phase_seconds[p],
            static_cast<unsigned long long>(r.profile.phase_calls[p]),
            p + 1 < util::kNumPhases ? "," : "");
      }
      std::fprintf(f, "        }\n      }\n");
    }
    std::fprintf(f, "    }%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("# wrote %s\n", path.c_str());
}

std::vector<std::size_t> parse_size_list(const std::string& csv) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    out.push_back(static_cast<std::size_t>(std::strtoull(tok.c_str(),
                                                         nullptr, 10)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_engine.json";
  std::string which = "all";
  std::size_t shards = 8;
  std::vector<std::size_t> thread_counts = {1, 2, 8};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--scenario" && i + 1 < argc) {
      which = argv[++i];
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<std::size_t>(
          std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--threads" && i + 1 < argc) {
      thread_counts = parse_size_list(argv[++i]);
    } else if (arg == "--profile") {
      g_profile = true;
    } else if (arg == "--repeat" && i + 1 < argc) {
      g_repeat = static_cast<unsigned>(
          std::strtoul(argv[++i], nullptr, 10));
      if (g_repeat == 0) g_repeat = 1;
    } else if (arg == "--series-only") {
      // Accepted for CI uniformity with the other benches: the series *is*
      // the measurement here, so there is nothing to skip.
    } else {
      std::fprintf(
          stderr,
          "usage: bench_perf_engine "
          "[--scenario paper|scaleup|sharded|scaleup16k|planet100k|"
          "planet1m|ci|all]\n"
          "                         [--shards K] [--threads N1,N2,...] "
          "[--profile] [--repeat N] [--out PATH]\n");
      return 2;
    }
  }
  if (shards == 0 || thread_counts.empty()) {
    std::fprintf(stderr,
                 "bench_perf_engine: --shards and --threads need values >= 1\n");
    return 2;
  }

  bench::banner("Engine", "simulation-engine throughput (events/sec)");
  std::printf("# host hardware threads: %u (sharded wall times only show "
              "scaling when this exceeds the thread count)\n",
              std::thread::hardware_concurrency());
  std::printf("scenario,mode,shards,threads,servers,vms,sim_hours,events,"
              "wall_s,events_per_sec,peak_rss_mb,allocations\n");

  std::vector<EngineRun> runs;
  if (which == "paper" || which == "all") {
    runs.push_back(run_scenario("paper", 400, 6000, 48.0));
  }
  if (which == "scaleup" || which == "all") {
    runs.push_back(run_scenario("scaleup_4000", 4000, 60000, 48.0));
  }
  if (which == "sharded" || which == "all") {
    // Thread matrix at fixed K: same work split, different worker counts —
    // the outputs are bit-identical by construction; only wall time moves.
    for (const std::size_t t : thread_counts) {
      runs.push_back(run_sharded_scenario("scaleup_4000", 4000, 60000, 48.0,
                                          shards, t));
    }
  }
  if (which == "scaleup16k" || which == "all") {
    runs.push_back(run_scenario("scaleup_16000", 16000, 240000, 48.0));
    runs.push_back(run_sharded_scenario("scaleup_16000", 16000, 240000, 48.0,
                                        shards, thread_counts.back()));
  }
  if (which == "planet100k" || which == "all") {
    // 100,000 servers / 1.5M VMs, 3 reported hours after a 1 h warm-up.
    runs.push_back(run_scenario_config(
        "planet_100k",
        planet_daily_config(100'000, 1'500'000, 3.0, 1.0),
        3.0));
    runs.push_back(run_sharded_scenario_config(
        "planet_100k",
        planet_daily_config(100'000, 1'500'000, 3.0, 1.0),
        3.0, shards, thread_counts.back()));
  }
  if (which == "planet1m" || which == "all") {
    // 1,000,000 servers / 15M VMs, single only: the cursor bank is
    // ~1.1 GB where a trace matrix would be tens of GB.
    runs.push_back(run_scenario_config(
        "planet_1m", planet_daily_config(1'000'000, 15'000'000, 0.5, 0.0),
        0.5));
  }
  if (which == "ci") {
    runs.push_back(run_scenario("ci_smoke", 100, 1500, 6.0));
    runs.push_back(
        run_sharded_scenario("ci_smoke", 100, 1500, 6.0, 4, 2));
  }
  if (runs.empty()) {
    std::fprintf(stderr, "bench_perf_engine: unknown scenario '%s'\n",
                 which.c_str());
    return 2;
  }
  write_json(out_path, runs);
  return 0;
}
