#pragma once

/// \file event_tag.hpp
/// \brief Serializable identity tags for scheduled events.
///
/// Callbacks are type-erased closures and cannot be written to disk, so a
/// checkpointable event instead carries a small POD tag describing *who*
/// scheduled it and *what* it does. At restore time the owning component
/// rebuilds the equivalent closure from the tag (the closure's captured
/// state lives in the component, which has its own save/load surface).
/// Events scheduled without a tag (owner == kNone) cannot be checkpointed;
/// a snapshot attempt fails with a diagnostic listing them.

#include <cstdint>

namespace ecocloud::sim {

/// Stable component identifiers used in EventTag::owner. Values are part
/// of the snapshot format — append, never renumber.
namespace tag_owner {
inline constexpr std::uint16_t kNone = 0;        ///< Untagged (not checkpointable).
inline constexpr std::uint16_t kController = 1;  ///< core::EcoCloudController.
inline constexpr std::uint16_t kTraceDriver = 2; ///< core::TraceDriver.
inline constexpr std::uint16_t kCollector = 3;   ///< metrics::MetricsCollector.
inline constexpr std::uint16_t kOpenSystem = 4;  ///< core::OpenSystemDriver.
inline constexpr std::uint16_t kFaults = 5;      ///< faults::FaultInjector.
inline constexpr std::uint16_t kRedeploy = 6;    ///< faults::RedeployQueue.
// Reserved, never reuse: 7 (kObsFlush), 8 (kCheckpoint) and 9 (kAuditor)
// tagged the retired telemetry-flush, checkpoint and audit events. Those
// services now run at safe points between run slices, outside any calendar.
}  // namespace tag_owner

/// 16-byte POD identifying a scheduled event across checkpoint/restore.
/// `kind` is owner-scoped; `a` and `b` carry the callback's parameters
/// (typically a server/VM id and a flag word).
struct EventTag {
  std::uint16_t owner = tag_owner::kNone;
  std::uint16_t kind = 0;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
};

}  // namespace ecocloud::sim
