#pragma once

/// \file checkpoint.hpp
/// \brief Crash-safe checkpoint/restore of a whole simulation.
///
/// CheckpointManager gathers the complete mutable state of a run into one
/// snapshot file and restores it so the resumed run is bit-identical —
/// same event stream, same metrics — to an uninterrupted run from the
/// same seed (pinned by tests/ckpt_test.cpp). Participants register two
/// things:
///
///  * a named **section** (save/load callbacks over util::BinWriter /
///    BinReader) for their plain state: counters, maps, RNG streams,
///    incrementally accumulated floats (always saved verbatim — see the
///    component save_state docs);
///  * an **owner** (rebuild/bind callbacks keyed by sim::tag_owner) that
///    recreates the std::function callback of each pending calendar
///    entry from its EventTag at import, and re-links EventHandles
///    (boot events, migration completions, redeploy retries).
///
/// Save order is registration order with a "meta" section first and the
/// engine calendar last; restore loads sections in the same order, then
/// imports the calendar into the still-fresh Simulator (which enforces
/// that nothing ran yet). The meta section carries a config digest: a
/// snapshot only restores into a scenario built from the same
/// configuration, because immutable state (fleet, traces, parameters) is
/// reconstructed from the config rather than stored.
///
/// The manager schedules nothing: drivers call save() at safe points —
/// sim times between two run slices, when no event is running (DESIGN.md
/// Sec. 11) — so neither the cadence nor checkpointing at all can perturb
/// the run.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ecocloud/sim/simulator.hpp"
#include "ecocloud/util/binio.hpp"

namespace ecocloud::ckpt {

struct Snapshot;

/// Store \p digest as \p snapshot's "meta" section (add it first).
void add_config_digest(Snapshot& snapshot, const std::string& digest);

/// Throw SnapshotError, naming \p path, unless \p snapshot's meta section
/// holds exactly \p digest.
void require_config_digest(const Snapshot& snapshot, const std::string& digest,
                           const std::string& path);

class CheckpointManager {
 public:
  using SaveFn = std::function<void(util::BinWriter&)>;
  using LoadFn = std::function<void(util::BinReader&)>;

  explicit CheckpointManager(sim::Simulator& simulator) : sim_(simulator) {}

  /// Register a state section. Sections are saved and restored in
  /// registration order; names must be unique and stable across builds.
  void add_section(std::string name, SaveFn save, LoadFn load);

  /// Register the rebuild (and optional handle re-link) callbacks for one
  /// sim::tag_owner. Every owner that can have pending calendar entries
  /// at checkpoint time must be registered before restore().
  void add_owner(std::uint16_t owner, sim::Simulator::RebuildFn rebuild,
                 sim::Simulator::BindFn bind = {});

  /// Fingerprint of the immutable configuration (fleet, seed, horizon,
  /// parameters). Stored in the snapshot and required to match at
  /// restore(); mismatch throws SnapshotError instead of silently
  /// resuming into a different experiment.
  void set_config_digest(std::string digest);

  /// Write a snapshot of the current state to \p path (atomic
  /// write-rename; the previous snapshot survives a crash mid-write).
  /// Call only at a safe point, never from inside an event.
  void save(const std::string& path);

  /// Restore a snapshot into a freshly constructed scenario: all
  /// registered sections load in order, then the event calendar is
  /// imported (the Simulator must not have run yet). Throws SnapshotError
  /// on any structural, version, CRC, digest, or section mismatch.
  void restore(const std::string& path);

  /// Append every registered section (named \p prefix + name) plus the
  /// engine calendar (\p prefix + "engine") to \p snapshot, without meta
  /// or file I/O. The sharded coordinator collects one manager per shard
  /// (prefix "s<k>.") into a single atomically written snapshot.
  void collect(Snapshot& snapshot, const std::string& prefix);

  /// Counterpart of collect(): load the prefixed sections out of an
  /// already-read snapshot and import the engine calendar. \p context
  /// names the snapshot in error messages. Leaves meta/digest checking
  /// and foreign-section detection to the caller.
  void restore_from(const Snapshot& snapshot, const std::string& prefix,
                    const std::string& context);

  /// Number of registered sections (excluding meta and the engine).
  [[nodiscard]] std::size_t num_sections() const { return sections_.size(); }

  /// Observability of the checkpoint path itself.
  struct Stats {
    std::uint64_t checkpoints_written = 0;
    std::uint64_t snapshot_bytes_last = 0;
    double save_wall_seconds_last = 0.0;
    double save_wall_seconds_total = 0.0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Section {
    std::string name;
    SaveFn save;
    LoadFn load;
  };
  struct Owner {
    sim::Simulator::RebuildFn rebuild;
    sim::Simulator::BindFn bind;
  };

  [[nodiscard]] const Owner& owner_for(const sim::EventTag& tag) const;

  sim::Simulator& sim_;
  std::vector<Section> sections_;
  std::vector<std::pair<std::uint16_t, Owner>> owners_;
  std::string digest_;
  Stats stats_;
  bool restored_ = false;
};

}  // namespace ecocloud::ckpt
