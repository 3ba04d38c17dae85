#pragma once

/// \file event_log.hpp
/// \brief Structured audit trail of controller decisions.
///
/// Records every observable ecoCloud event — placements, migration
/// start/completion, activations, hibernations, refused deployments — as
/// timestamped rows, for post-run analysis or export. Purely an observer:
/// attaching it changes nothing about the simulation. It chains any
/// callbacks already installed (e.g. the MetricsCollector's), so both see
/// every event.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <vector>

#include "ecocloud/core/controller.hpp"
#include "ecocloud/util/binio.hpp"

namespace ecocloud::metrics {

enum class EventKind : std::uint8_t {
  kAssignment,
  kAssignmentFailure,
  kMigrationStart,
  kMigrationComplete,
  kActivation,
  kHibernation,
  // Failure-path events (only seen with fault injection active).
  kServerFailed,
  kServerRepaired,
  kVmOrphaned,
  kMigrationAborted,
};

/// Number of EventKind enumerators (per-kind counter array size).
inline constexpr std::size_t kNumEventKinds = 10;

[[nodiscard]] const char* to_string(EventKind kind);

struct Event {
  sim::SimTime time = 0.0;
  EventKind kind = EventKind::kAssignment;
  dc::VmId vm = dc::kNoVm;          // kNoVm for server-only events
  dc::ServerId server = dc::kNoServer;
  bool is_high = false;             // migration events only
};

/// The canonical event CSV row format (header, 10-digit precision, -1
/// sentinels for missing ids). Every producer — EventLog::write_csv, the
/// sharded merge, eventlog2csv — funnels through this one function so
/// their outputs are byte-comparable.
void write_events_csv(std::ostream& out, const std::vector<Event>& events);

class EventLog {
 public:
  /// Subscribe to \p controller's events, chaining existing callbacks.
  void attach(core::EcoCloudController& controller);

  /// Append one row, as attach()'s callbacks do. The sharded coordinator
  /// records its cross-shard rows here.
  void record(const Event& event) {
    events_.push_back(event);
    ++counts_[static_cast<std::size_t>(event.kind)];
  }

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Number of recorded events of one kind. O(1): maintained per kind on
  /// append rather than scanned.
  [[nodiscard]] std::size_t count(EventKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }

  /// Write all events as CSV: time_s,kind,vm,server,is_high (with a
  /// header row; round-trips through util::read_csv).
  void write_csv(std::ostream& out) const;

  void clear() {
    events_.clear();
    counts_.fill(0);
  }

  /// Checkpoint surface: the recorded rows (counters are derived on load).
  void save_state(util::BinWriter& w) const {
    w.u64(events_.size());
    for (const Event& e : events_) {
      w.f64(e.time);
      w.u8(static_cast<std::uint8_t>(e.kind));
      w.u64(e.vm);
      w.u64(e.server);
      w.boolean(e.is_high);
    }
  }

  void load_state(util::BinReader& r) {
    clear();
    const std::uint64_t n = r.u64();
    events_.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      Event e;
      e.time = r.f64();
      const std::uint8_t kind = r.u8();
      if (kind >= kNumEventKinds) {
        throw std::runtime_error("EventLog: snapshot contains an unknown event kind");
      }
      e.kind = static_cast<EventKind>(kind);
      e.vm = static_cast<dc::VmId>(r.u64());
      e.server = static_cast<dc::ServerId>(r.u64());
      e.is_high = r.boolean();
      record(e);
    }
  }

 private:
  std::vector<Event> events_;
  std::array<std::size_t, kNumEventKinds> counts_{};
};

}  // namespace ecocloud::metrics
