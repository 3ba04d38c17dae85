#include "ecocloud/ckpt/checkpoint.hpp"

#include <chrono>
#include <utility>

#include "ecocloud/ckpt/snapshot_io.hpp"
#include "ecocloud/sim/event_tag.hpp"
#include "ecocloud/util/phase_profiler.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::ckpt {

namespace {

constexpr const char* kMetaSection = "meta";
constexpr const char* kEngineSection = "engine";

std::string save_engine(const sim::Simulator& sim) {
  const sim::EngineCheckpoint ck = sim.export_calendar();
  util::BinWriter w;
  w.f64(ck.now);
  w.u64(ck.next_seq);
  w.u64(ck.executed);
  w.u64(ck.stats.scheduled_one_shot);
  w.u64(ck.stats.scheduled_periodic);
  w.u64(ck.stats.fired_from_heap);
  w.u64(ck.stats.fired_from_ring);
  w.u64(ck.stats.fired_one_shot);
  w.u64(ck.stats.fired_periodic);
  w.u64(ck.stats.cancels);
  w.u64(ck.stats.stale_cancels);
  w.u64(ck.stats.dropped_cancelled);
  w.u32(ck.stats.slab_high_water);
  w.u64(ck.ring_periods.size());
  for (sim::SimTime period : ck.ring_periods) w.f64(period);
  w.u64(ck.entries.size());
  for (const sim::CalendarEntry& entry : ck.entries) {
    w.f64(entry.time);
    w.u64(entry.seq);
    w.f64(entry.period);
    w.i64(entry.source);
    w.boolean(entry.cancelled);
    w.u16(entry.tag.owner);
    w.u16(entry.tag.kind);
    w.u32(entry.tag.a);
    w.u64(entry.tag.b);
  }
  return w.take();
}

sim::EngineCheckpoint load_engine(util::BinReader& r) {
  sim::EngineCheckpoint ck;
  ck.now = r.f64();
  ck.next_seq = r.u64();
  ck.executed = r.u64();
  ck.stats.scheduled_one_shot = r.u64();
  ck.stats.scheduled_periodic = r.u64();
  ck.stats.fired_from_heap = r.u64();
  ck.stats.fired_from_ring = r.u64();
  ck.stats.fired_one_shot = r.u64();
  ck.stats.fired_periodic = r.u64();
  ck.stats.cancels = r.u64();
  ck.stats.stale_cancels = r.u64();
  ck.stats.dropped_cancelled = r.u64();
  ck.stats.slab_high_water = r.u32();
  ck.ring_periods.assign(static_cast<std::size_t>(r.u64()), 0.0);
  for (sim::SimTime& period : ck.ring_periods) period = r.f64();
  ck.entries.assign(static_cast<std::size_t>(r.u64()), sim::CalendarEntry{});
  for (sim::CalendarEntry& entry : ck.entries) {
    entry.time = r.f64();
    entry.seq = r.u64();
    entry.period = r.f64();
    entry.source = static_cast<std::int32_t>(r.i64());
    entry.cancelled = r.boolean();
    entry.tag.owner = r.u16();
    entry.tag.kind = r.u16();
    entry.tag.a = r.u32();
    entry.tag.b = r.u64();
  }
  return ck;
}

}  // namespace

void add_config_digest(Snapshot& snapshot, const std::string& digest) {
  util::BinWriter w;
  w.str(digest);
  snapshot.add(kMetaSection, w.take());
}

void require_config_digest(const Snapshot& snapshot, const std::string& digest,
                           const std::string& path) {
  const SnapshotSection* meta = snapshot.find(kMetaSection);
  if (meta == nullptr) {
    throw SnapshotError("snapshot: '" + path + "' has no meta section");
  }
  util::BinReader r(meta->payload);
  const std::string stored = r.str();
  r.expect_exhausted(kMetaSection);
  if (stored != digest) {
    throw SnapshotError("snapshot: '" + path +
                        "' was written for a different configuration\n  stored:  " +
                        stored + "\n  current: " + digest);
  }
}

CheckpointManager::CheckpointManager(sim::Simulator& simulator) : sim_(simulator) {
  // The manager owns its own periodic event's rebuild.
  add_owner(sim::tag_owner::kCheckpoint,
            [this](const sim::EventTag& tag) { return rebuild_event(tag); });
}

void CheckpointManager::add_section(std::string name, SaveFn save, LoadFn load) {
  util::require(static_cast<bool>(save) && static_cast<bool>(load),
                "CheckpointManager: section callbacks must be non-empty");
  for (const Section& section : sections_) {
    util::require(section.name != name,
                  "CheckpointManager: duplicate section '" + name + "'");
  }
  sections_.push_back(Section{std::move(name), std::move(save), std::move(load)});
}

void CheckpointManager::add_owner(std::uint16_t owner,
                                  sim::Simulator::RebuildFn rebuild,
                                  sim::Simulator::BindFn bind) {
  util::require(static_cast<bool>(rebuild),
                "CheckpointManager: owner rebuild must be non-empty");
  for (const auto& [existing, callbacks] : owners_) {
    util::require(existing != owner, "CheckpointManager: duplicate owner " +
                                         std::to_string(owner));
  }
  owners_.emplace_back(owner, Owner{std::move(rebuild), std::move(bind)});
}

void CheckpointManager::set_config_digest(std::string digest) {
  digest_ = std::move(digest);
}

const CheckpointManager::Owner& CheckpointManager::owner_for(
    const sim::EventTag& tag) const {
  for (const auto& [owner, callbacks] : owners_) {
    if (owner == tag.owner) return callbacks;
  }
  throw SnapshotError(
      "snapshot: calendar entry owned by unregistered participant " +
      std::to_string(tag.owner) +
      " — the resumed run must enable the same subsystems (faults, "
      "telemetry, auditing) as the run that wrote the snapshot");
}

void CheckpointManager::collect(Snapshot& snapshot, const std::string& prefix) {
  for (const Section& section : sections_) {
    util::BinWriter w;
    section.save(w);
    snapshot.add(prefix + section.name, w.take());
  }
  snapshot.add(prefix + kEngineSection, save_engine(sim_));
}

void CheckpointManager::save(const std::string& path) {
  util::ScopedPhase profile(util::Phase::kCheckpointWrite);
  const auto t0 = std::chrono::steady_clock::now();

  Snapshot snapshot;
  add_config_digest(snapshot, digest_);
  collect(snapshot, "");
  write_snapshot_file(snapshot, path);

  const auto t1 = std::chrono::steady_clock::now();
  ++stats_.checkpoints_written;
  std::uint64_t total = 0;
  for (const SnapshotSection& section : snapshot.sections) {
    total += section.payload.size();
  }
  stats_.snapshot_bytes_last = total;
  stats_.save_wall_seconds_last = std::chrono::duration<double>(t1 - t0).count();
  stats_.save_wall_seconds_total += stats_.save_wall_seconds_last;
  if (on_saved) on_saved(path);
}

void CheckpointManager::restore_from(const Snapshot& snapshot,
                                     const std::string& prefix,
                                     const std::string& context) {
  util::require(!restored_, "CheckpointManager: restore called twice");

  for (const Section& section : sections_) {
    const std::string name = prefix + section.name;
    const SnapshotSection* stored = snapshot.find(name);
    if (stored == nullptr) {
      throw SnapshotError("snapshot: '" + context + "' is missing section '" +
                          name + "'");
    }
    util::BinReader r(stored->payload);
    try {
      section.load(r);
      r.expect_exhausted(name);
    } catch (const SnapshotError&) {
      throw;
    } catch (const std::exception& error) {
      throw SnapshotError("snapshot: '" + context + "' section '" + name +
                          "' failed to load: " + error.what());
    }
  }

  const std::string engine_name = prefix + kEngineSection;
  const SnapshotSection* engine = snapshot.find(engine_name);
  if (engine == nullptr) {
    throw SnapshotError("snapshot: '" + context + "' has no '" + engine_name +
                        "' section");
  }
  util::BinReader r(engine->payload);
  sim::EngineCheckpoint ck;
  try {
    ck = load_engine(r);
    r.expect_exhausted(engine_name);
  } catch (const std::exception& error) {
    throw SnapshotError("snapshot: '" + context + "' section '" + engine_name +
                        "' failed to load: " + error.what());
  }
  sim_.import_calendar(
      ck,
      [this](const sim::EventTag& tag) { return owner_for(tag).rebuild(tag); },
      [this](const sim::EventTag& tag, sim::EventHandle handle) {
        const Owner& owner = owner_for(tag);
        if (owner.bind) owner.bind(tag, handle);
      });
  restored_ = true;
}

void CheckpointManager::restore(const std::string& path) {
  const Snapshot snapshot = read_snapshot_file(path);
  require_config_digest(snapshot, digest_, path);

  // Every non-registered section except the engine is a mismatch between
  // the writing and restoring wiring — refuse rather than silently drop
  // state (e.g. a run that recorded an event log resumed without one).
  for (const SnapshotSection& stored : snapshot.sections) {
    if (stored.name == kMetaSection || stored.name == kEngineSection) continue;
    bool registered = false;
    for (const Section& section : sections_) {
      if (section.name == stored.name) {
        registered = true;
        break;
      }
    }
    if (!registered) {
      throw SnapshotError("snapshot: '" + path + "' carries section '" +
                          stored.name +
                          "' which no registered participant loads");
    }
  }

  restore_from(snapshot, "", path);
}

void CheckpointManager::start_periodic(sim::SimTime period_s, std::string path) {
  util::require(period_s > 0.0, "CheckpointManager: period must be > 0");
  util::require(!path.empty(), "CheckpointManager: empty checkpoint path");
  util::require(!restored_,
                "CheckpointManager: a resumed run re-arms its checkpoint "
                "event from the snapshot; do not call start_periodic");
  path_ = std::move(path);
  sim_.schedule_periodic(period_s,
                         sim::EventTag{sim::tag_owner::kCheckpoint, kEvCheckpoint,
                                       0, 0},
                         [this] { periodic_tick(); }, period_s);
}

sim::Simulator::Callback CheckpointManager::rebuild_event(const sim::EventTag& tag) {
  if (tag.kind == kEvCheckpoint) return [this] { periodic_tick(); };
  throw SnapshotError("snapshot: unknown checkpoint event kind " +
                      std::to_string(tag.kind));
}

void CheckpointManager::periodic_tick() {
  // The event always runs (keeping seq consumption identical across
  // resume chains); writing is skipped only when no output is configured.
  if (!path_.empty()) save(path_);
}

}  // namespace ecocloud::ckpt
