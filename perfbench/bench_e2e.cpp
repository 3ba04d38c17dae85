// bench_e2e: one rep of one benchmark workload, in a fresh process, so each
// rep pays the cold costs a CLI user pays and its peak RSS is its own.
// run.py starts it once per rep and reads the one JSON line it prints.
//
//   bench_e2e --workload paper|scaleup_daily|planet_sharded|campaign_server
//             [--seed N] [--mode run|setup|config|capacity] [--trace 0|1]
//             [--trace-out FILE] [--workdir DIR] [--smoke] [--load-seconds S]
//
// --mode setup constructs only (an extra setup_s sample); --mode config
// prints the workload's daily config text; --mode capacity (campaign_server)
// measures the server's closed-loop capacity for --load-seconds; --trace 1
// wraps each layer call in a span and reports the per-layer metrics;
// --smoke shrinks every workload to a few hundred milliseconds.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <string>

#include "workloads.hpp"

// Heap-allocation counter for util.allocs_per_event. Replacing operator new
// is binary-wide, which is the scope wanted here. bench_perf_engine defines
// the same counter in its own source file: a replacement must be defined
// once per binary, and that file is not part of this package.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ecocloud::perfbench {
std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}
}  // namespace ecocloud::perfbench

namespace {

using ecocloud::perfbench::Options;

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME [--seed N]\n"
               "                 [--mode run|setup|config|capacity]\n"
               "                 [--trace 0|1] [--trace-out FILE] [--workdir DIR]\n"
               "                 [--smoke] [--load-seconds S]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--mode" && has_value) {
      options.mode = argv[++i];
    } else if (arg == "--trace" && has_value) {
      options.traced = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else if (arg == "--workdir" && has_value) {
      options.workdir = argv[++i];
    } else if (arg == "--load-seconds" && has_value) {
      options.load_seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      return usage();
    }
  }
  const bool server = options.workload == "campaign_server";
  const bool known_mode = options.mode == "run" || options.mode == "config" ||
                          options.mode == (server ? "capacity" : "setup");
  if (options.workload.empty() || options.load_seconds <= 0.0 || !known_mode) {
    return usage();
  }

  namespace pb = ecocloud::perfbench;
  try {
    if (options.mode == "config") {
      std::fputs(pb::daily_config_text(options, options.seed).c_str(), stdout);
      return 0;
    }
    pb::Result out;
    out.text("workload", options.workload);
    out.text("mode", options.mode);
    out.count("seed", options.seed);
    pb::add_host(out);
    if (server) {
      pb::run_server_workload(options, out);
    } else {
      pb::run_daily_workload(options, out);
    }
    std::printf("%s\n", out.line().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_e2e: %s\n", error.what());
    return 1;
  }
}
