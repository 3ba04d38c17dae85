#pragma once

/// \file sharded_telemetry.hpp
/// \brief The run's obs::Telemetry stack over a sharded run: shard k is calendar k.

#include <memory>

#include "ecocloud/obs/telemetry.hpp"
#include "ecocloud/par/sharded_runner.hpp"

namespace ecocloud::par {

/// Observe every shard of \p run with one obs::Telemetry, adding only what is specific
/// to sharding: global-id translations (K > 1), the coordinator's ecocloud_par_*
/// counters, the robustness series from ParStats, and the flush chained on
/// run.on_barrier. Call before run() (after restore_snapshot, if resuming); the stack
/// must outlive run().
[[nodiscard]] std::unique_ptr<obs::Telemetry> attach_telemetry(
    ShardedDailyRun& run, obs::Telemetry::Options options);

}  // namespace ecocloud::par
