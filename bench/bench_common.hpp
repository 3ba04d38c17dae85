#pragma once

/// \file bench_common.hpp
/// \brief Shared scaffolding for the per-figure bench binaries.
///
/// Every bench binary follows the same shape:
///   1. emit the figure's data series to stdout (CSV-style rows matching
///      the paper's axes), then
///   2. run google-benchmark timings of the computational kernels involved
///      (skipped with --series-only).
///
/// The 48-hour scenario benches share one configuration: a 6-hour warm-up
/// (the bootstrap transient of deploying 6,000 VMs into an empty data
/// center, which the paper's steady-state logs do not contain) followed by
/// the 48 reported hours. Reported times are shifted so hour 0 is the end
/// of the warm-up (midnight, as in the paper).

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "ecocloud/scenario/scenario.hpp"

namespace ecocloud::bench {

/// Warm-up skipped before the reported 48 hours.
inline constexpr sim::SimTime kWarmup = 6.0 * sim::kHour;

/// True high-water resident set size of this process in MB, from the
/// kernel's VmHWM counter in /proc/self/status — the peak since the
/// process started or the last reset_peak_rss(), which is what a memory
/// *budget* must be checked against (a current-RSS sample at measurement
/// time misses transients like trace generation). Falls back to
/// getrusage's ru_maxrss (also a high-water mark, but coarser on some
/// kernels) where /proc is absent.
inline double peak_rss_mb() {
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      long kib = 0;
      if (std::sscanf(line, "VmHWM: %ld", &kib) == 1) {
        std::fclose(status);
        return static_cast<double>(kib) / 1024.0;
      }
    }
    std::fclose(status);
  }
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Reset VmHWM to the current RSS (writes 5 to /proc/self/clear_refs), so
/// the next peak_rss_mb() covers only what follows — one bench row, not
/// the largest row before it. A no-op where that file is absent.
inline void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// The paper's Sec. III configuration plus warm-up.
inline scenario::DailyConfig paper_daily_config() {
  scenario::DailyConfig config;
  config.warmup_s = kWarmup;
  config.horizon_s = kWarmup + 48.0 * sim::kHour;
  return config;
}

/// Daily configuration scaled to an arbitrary fleet/population/horizon —
/// the sweep benches all run reduced scenarios of this shape.
inline scenario::DailyConfig scaled_daily_config(std::size_t servers,
                                                 std::size_t vms, double hours,
                                                 sim::SimTime warmup = kWarmup) {
  scenario::DailyConfig config;
  config.fleet.num_servers = servers;
  config.num_vms = vms;
  config.warmup_s = warmup;
  config.horizon_s = warmup + hours * sim::kHour;
  return config;
}

/// Fully active fleet of \p n identical servers (micro-kernel setup shared
/// by the google-benchmark bodies).
inline dc::DataCenter make_active_fleet(std::size_t n, unsigned cores = 6,
                                        double core_mhz = 2000.0,
                                        double ram_mb = 0.0) {
  dc::DataCenter d;
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = d.add_server(cores, core_mhz, ram_mb);
    d.start_booting(0.0, s);
    d.finish_booting(0.0, s);
  }
  return d;
}

/// Active fleet with one VM per server; \p demand_mhz(i) gives VM i's
/// demand so benches control the utilization profile.
template <typename DemandFn>
dc::DataCenter make_loaded_fleet(std::size_t n, DemandFn&& demand_mhz,
                                 unsigned cores = 6, double core_mhz = 2000.0) {
  dc::DataCenter d;
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = d.add_server(cores, core_mhz);
    d.start_booting(0.0, s);
    d.finish_booting(0.0, s);
    const auto v = d.create_vm(demand_mhz(i));
    d.place_vm(0.0, v, s);
  }
  return d;
}

/// Reported hour for a sample time (warm-up-shifted).
inline double report_hour(sim::SimTime t) { return (t - kWarmup) / sim::kHour; }

/// True if the sample at time \p t falls in the reported 48 hours.
inline bool in_report_window(sim::SimTime t) {
  return t > kWarmup + 1e-9;
}

/// Emit the figure banner expected at the top of each bench's output.
inline void banner(const char* figure, const char* description) {
  std::printf("# %s — %s\n", figure, description);
}

/// Headline numbers of a completed daily run (ablation/comparison rows).
struct DailySummary {
  double energy_kwh = 0.0;
  double mean_active = 0.0;
  double overload_percent = 0.0;  // over the whole reported window
  std::uint64_t migrations = 0;
  std::uint64_t switches = 0;  // activations + hibernations after warm-up
  std::size_t max_inflight = 0;  // peak simultaneous migrations
};

/// Summarize a finished DailyScenario. Accounting was reset at the end of
/// the warm-up, so the DataCenter accumulators cover the reported window.
inline DailySummary summarize_daily(scenario::DailyScenario& daily) {
  DailySummary out;
  const auto& d = daily.datacenter();
  out.energy_kwh = d.energy_joules() / 3.6e6;
  out.migrations = d.total_migrations();
  out.switches = d.total_activations() + d.total_hibernations();
  out.max_inflight = d.max_inflight_migrations();
  out.overload_percent =
      d.vm_seconds() > 0.0 ? 100.0 * d.overload_vm_seconds() / d.vm_seconds() : 0.0;
  double active = 0.0;
  std::size_t n = 0;
  for (const auto& s : daily.collector().samples()) {
    if (!in_report_window(s.time)) continue;
    active += static_cast<double>(s.active_servers);
    ++n;
  }
  out.mean_active = n ? active / static_cast<double>(n) : 0.0;
  return out;
}

/// Parse --series-only; everything else is forwarded to google-benchmark.
inline bool series_only(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--series-only") == 0) return true;
  }
  return false;
}

/// Run the registered google-benchmarks unless --series-only was given.
inline int run_benchmarks(int argc, char** argv) {
  if (series_only(argc, argv)) return 0;
  // Strip our flag before handing argv to google-benchmark.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--series-only") != 0) args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  std::printf("\n# --- kernel timings (google-benchmark) ---\n");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace ecocloud::bench
