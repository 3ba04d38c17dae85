#include "ecocloud/par/sharded_telemetry.hpp"

#include <tuple>
#include <utility>
#include <vector>

namespace ecocloud::par {

std::unique_ptr<obs::Telemetry> attach_telemetry(ShardedDailyRun& run,
                                                 obs::Telemetry::Options options) {
  const std::size_t K = run.num_shards();
  const ShardPlan& plan = run.plan();
  std::vector<obs::ObservedCalendar> calendars;
  for (std::size_t k = 0; k < K; ++k) {
    Shard& shard = run.shard(k);
    obs::ObservedCalendar calendar{.simulator = &shard.simulator(),
                                   .datacenter = &shard.datacenter(),
                                   .controller = &shard.controller(),
                                   .faults = shard.fault_injector()};
    if (K > 1) {
      calendar.shard = {
          .sharded = true,
          .shard = k,
          .global_server = [&plan, k](std::uint64_t local) -> std::uint64_t {
            return plan.global_server(k, static_cast<dc::ServerId>(local));
          },
          .global_vm = [&shard](std::uint64_t local) -> std::uint64_t {
            return shard.trace_of(static_cast<dc::VmId>(local));
          }};
    }
    calendars.push_back(std::move(calendar));
  }
  auto telemetry = std::make_unique<obs::Telemetry>(std::move(calendars), options);

  // Coordinator-level series, pulled from the run's stats only at export (after
  // run(), so no data race with the epoch workers).
  const ParStats* stats = &run.stats();
  for (const auto& [name, field, help] : {
           std::tuple{"ecocloud_par_barriers_total", &ParStats::barriers,
                      "Epoch barriers completed by the sharded coordinator"},
           std::tuple{"ecocloud_par_stranded_wishes_total", &ParStats::stranded_wishes,
                      "Migration wishes drained at barriers"},
           std::tuple{"ecocloud_par_handoff_attempts_total", &ParStats::handoff_attempts,
                      "Wishes still valid at the barrier (hand-off attempted)"},
           std::tuple{"ecocloud_par_cross_shard_migrations_total",
                      &ParStats::cross_shard_migrations,
                      "VMs transferred between shards at barriers"}}) {
    telemetry->registry().counter_fn(
        name, [stats, field = field] { return stats->*field; }, {}, help);
  }
  telemetry->attach_robustness([stats] {
    return obs::RobustnessSample{.checkpoints_written = stats->checkpoints_written,
                                 .snapshot_bytes_last = stats->snapshot_bytes_last,
                                 .save_wall_seconds_total = stats->save_wall_seconds_total,
                                 .audits_run = stats->audits_run,
                                 .audits_failed = stats->audit_failures,
                                 .heals_applied = stats->audit_heals};
  });

  // Barrier-driven flush, chained so an existing hook keeps firing.
  run.on_barrier = [stack = telemetry.get(),
                    prev = std::move(run.on_barrier)](sim::SimTime t) {
    if (prev) prev(t);
    stack->flush_now(t);
  };
  return telemetry;
}

}  // namespace ecocloud::par
