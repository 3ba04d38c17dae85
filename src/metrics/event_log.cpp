#include "ecocloud/metrics/event_log.hpp"

#include <ostream>

#include "ecocloud/util/csv.hpp"

namespace ecocloud::metrics {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kAssignment: return "assignment";
    case EventKind::kAssignmentFailure: return "assignment_failure";
    case EventKind::kMigrationStart: return "migration_start";
    case EventKind::kMigrationComplete: return "migration_complete";
    case EventKind::kActivation: return "activation";
    case EventKind::kHibernation: return "hibernation";
    case EventKind::kServerFailed: return "server_failed";
    case EventKind::kServerRepaired: return "server_repaired";
    case EventKind::kVmOrphaned: return "vm_orphaned";
    case EventKind::kMigrationAborted: return "migration_aborted";
  }
  return "unknown";
}

void EventLog::attach(core::EcoCloudController& controller) {
  core::EcoCloudController::Events& hooks = controller.events();

  hooks.on_assignment = [this, chained = std::move(hooks.on_assignment)](
                            sim::SimTime t, dc::VmId vm, dc::ServerId server) {
    record({t, EventKind::kAssignment, vm, server, false});
    if (chained) chained(t, vm, server);
  };
  hooks.on_assignment_failure =
      [this, chained = std::move(hooks.on_assignment_failure)](sim::SimTime t,
                                                               dc::VmId vm) {
        record({t, EventKind::kAssignmentFailure, vm, dc::kNoServer,
                           false});
        if (chained) chained(t, vm);
      };
  hooks.on_migration_start =
      [this, chained = std::move(hooks.on_migration_start)](
          sim::SimTime t, dc::VmId vm, bool is_high) {
        record({t, EventKind::kMigrationStart, vm, dc::kNoServer,
                           is_high});
        if (chained) chained(t, vm, is_high);
      };
  hooks.on_migration_complete =
      [this, chained = std::move(hooks.on_migration_complete)](
          sim::SimTime t, dc::VmId vm, bool is_high) {
        record({t, EventKind::kMigrationComplete, vm, dc::kNoServer,
                           is_high});
        if (chained) chained(t, vm, is_high);
      };
  hooks.on_activation = [this, chained = std::move(hooks.on_activation)](
                            sim::SimTime t, dc::ServerId server) {
    record({t, EventKind::kActivation, dc::kNoVm, server, false});
    if (chained) chained(t, server);
  };
  hooks.on_hibernation = [this, chained = std::move(hooks.on_hibernation)](
                             sim::SimTime t, dc::ServerId server) {
    record({t, EventKind::kHibernation, dc::kNoVm, server, false});
    if (chained) chained(t, server);
  };
  hooks.on_server_failed = [this, chained = std::move(hooks.on_server_failed)](
                               sim::SimTime t, dc::ServerId server) {
    record({t, EventKind::kServerFailed, dc::kNoVm, server, false});
    if (chained) chained(t, server);
  };
  hooks.on_server_repaired = [this, chained = std::move(hooks.on_server_repaired)](
                                 sim::SimTime t, dc::ServerId server) {
    record({t, EventKind::kServerRepaired, dc::kNoVm, server, false});
    if (chained) chained(t, server);
  };
  hooks.on_vm_orphaned = [this, chained = std::move(hooks.on_vm_orphaned)](
                             sim::SimTime t, dc::VmId vm, dc::ServerId server) {
    record({t, EventKind::kVmOrphaned, vm, server, false});
    if (chained) chained(t, vm, server);
  };
  hooks.on_migration_aborted =
      [this, chained = std::move(hooks.on_migration_aborted)](
          sim::SimTime t, dc::VmId vm, bool is_high) {
        record({t, EventKind::kMigrationAborted, vm, dc::kNoServer,
                           is_high});
        if (chained) chained(t, vm, is_high);
      };
}

void write_events_csv(std::ostream& out, const std::vector<Event>& events) {
  util::CsvWriter csv(out, 10);
  csv.header({"time_s", "kind", "vm", "server", "is_high"});
  for (const Event& event : events) {
    csv.field(event.time)
        .field(to_string(event.kind))
        .field(static_cast<long long>(
            event.vm == dc::kNoVm ? -1 : static_cast<long long>(event.vm)))
        .field(static_cast<long long>(
            event.server == dc::kNoServer ? -1
                                          : static_cast<long long>(event.server)))
        .field(static_cast<long long>(event.is_high ? 1 : 0));
    csv.end_row();
  }
}

void EventLog::write_csv(std::ostream& out) const {
  write_events_csv(out, events_);
}

}  // namespace ecocloud::metrics
