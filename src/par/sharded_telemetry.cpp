#include "ecocloud/par/sharded_telemetry.hpp"

#include <cstdlib>
#include <ostream>
#include <string_view>
#include <utility>

namespace ecocloud::par {

namespace {

/// ts_sim of a JSONL record; every Logger line starts {"ts_sim":<num>.
double ts_of(std::string_view line) {
  constexpr std::string_view kPrefix = "{\"ts_sim\":";
  if (line.substr(0, kPrefix.size()) != kPrefix) return 0.0;
  return std::strtod(line.data() + kPrefix.size(), nullptr);
}

}  // namespace

ShardedTelemetry::ShardedTelemetry(ShardedDailyRun& run, Options options)
    : run_(run) {
  const std::size_t K = run_.num_shards();
  const ShardPlan& plan = run_.plan();
  stacks_.reserve(K);
  for (std::size_t k = 0; k < K; ++k) {
    auto stack = std::make_unique<ShardStack>();
    Shard& shard = run_.shard(k);
    const Shard* shard_ptr = &shard;

    stack->logger = std::make_unique<obs::Logger>();
    if (options.log_level != obs::LogLevel::kOff) {
      stack->logger->set_sink(&stack->log_sink);
      stack->logger->set_level(options.log_level);
      stack->logger->set_clock(
          [shard_ptr] { return shard_ptr->simulator().now(); });
      if (K > 1) stack->logger->bind_field("shard", k);
    }
    if (options.trace) {
      stack->trace = std::make_unique<obs::ChromeTraceWriter>();
    }

    obs::ShardContext ctx;
    ctx.sharded = K > 1;
    ctx.shard = k;
    if (K > 1) {
      ctx.global_server = [&plan, k](std::uint64_t local) {
        return static_cast<std::uint64_t>(
            plan.global_server(k, static_cast<dc::ServerId>(local)));
      };
      ctx.global_vm = [shard_ptr](std::uint64_t local) {
        return static_cast<std::uint64_t>(
            shard_ptr->trace_of(static_cast<dc::VmId>(local)));
      };
    }
    stack->instrumentation = std::make_unique<obs::Instrumentation>(
        registry_, *stack->logger, stack->trace.get(), std::move(ctx));

    stack->instrumentation->attach_engine(shard.simulator());
    stack->instrumentation->attach_datacenter(shard.datacenter());
    stack->instrumentation->attach_controller(shard.controller());
    if (shard.fault_injector() != nullptr) {
      stack->instrumentation->attach_faults(*shard.fault_injector());
    }
    stacks_.push_back(std::move(stack));
  }

  // Coordinator-level series (pull-mode over the run's stats; sampled
  // only at export time, so no data race with the epoch workers).
  const ParStats* stats = &run_.stats();
  registry_.counter_fn(
      "ecocloud_par_barriers_total", [stats] { return stats->barriers; }, {},
      "Epoch barriers completed by the sharded coordinator");
  registry_.counter_fn(
      "ecocloud_par_stranded_wishes_total",
      [stats] { return stats->stranded_wishes; }, {},
      "Migration wishes drained at barriers");
  registry_.counter_fn(
      "ecocloud_par_handoff_attempts_total",
      [stats] { return stats->handoff_attempts; }, {},
      "Wishes still valid at the barrier (hand-off attempted)");
  registry_.counter_fn(
      "ecocloud_par_cross_shard_migrations_total",
      [stats] { return stats->cross_shard_migrations; }, {},
      "VMs transferred between shards at barriers");
  // Barrier snapshots and audits under the single-calendar series names.
  stacks_.front()->instrumentation->attach_robustness([stats] {
    obs::RobustnessSample sample;
    sample.checkpoints_written = stats->checkpoints_written;
    sample.snapshot_bytes_last = stats->snapshot_bytes_last;
    sample.save_wall_seconds_total = stats->save_wall_seconds_total;
    sample.audits_run = stats->audits_run;
    sample.audits_failed = stats->audit_failures;
    sample.heals_applied = stats->audit_heals;
    return sample;
  });

  // Barrier-driven flush, chained so an existing hook keeps firing.
  run_.on_barrier = [this, prev = std::move(run_.on_barrier)](sim::SimTime t) {
    if (prev) prev(t);
    for (auto& stack : stacks_) stack->instrumentation->flush_now(t);
  };
}

void ShardedTelemetry::finalize(sim::SimTime end) {
  for (auto& stack : stacks_) stack->instrumentation->finalize(end);
}

void ShardedTelemetry::write_log(std::ostream& out) {
  // Materialize each shard's sink once, then K-way merge line-by-line:
  // strictly smaller ts_sim first, ties to the lower shard index. Records
  // within a shard are already time-ordered (the clock is its simulator).
  const std::size_t K = stacks_.size();
  std::vector<std::string> text(K);
  std::vector<std::size_t> pos(K, 0);
  for (std::size_t k = 0; k < K; ++k) text[k] = stacks_[k]->log_sink.str();

  const auto next_line = [&](std::size_t k) -> std::string_view {
    const std::string& s = text[k];
    const std::size_t end = s.find('\n', pos[k]);
    const std::size_t stop = end == std::string::npos ? s.size() : end + 1;
    return std::string_view(s).substr(pos[k], stop - pos[k]);
  };

  for (;;) {
    std::size_t best = K;
    double best_ts = 0.0;
    for (std::size_t k = 0; k < K; ++k) {
      if (pos[k] >= text[k].size()) continue;
      const double ts = ts_of(next_line(k));
      if (best == K || ts < best_ts) {
        best = k;
        best_ts = ts;
      }
    }
    if (best == K) break;
    const std::string_view line = next_line(best);
    out << line;
    pos[best] += line.size();
  }
}

void ShardedTelemetry::write_trace(std::ostream& out) {
  obs::ChromeTraceWriter merged;
  for (auto& stack : stacks_) {
    if (stack->trace) merged.absorb(std::move(*stack->trace));
  }
  merged.write(out);
}

std::uint64_t ShardedTelemetry::log_lines() const {
  std::uint64_t total = 0;
  for (const auto& stack : stacks_) total += stack->logger->lines_written();
  return total;
}

}  // namespace ecocloud::par
