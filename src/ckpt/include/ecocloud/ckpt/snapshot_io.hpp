#pragma once

/// \file snapshot_io.hpp
/// \brief Versioned, checksummed snapshot container (DESIGN.md Sec. 11).
///
/// A snapshot is a flat sequence of named sections, each carrying an
/// opaque payload produced by one component's save_state. The container
/// layer owns everything a corrupted or foreign file could break on:
///
///  * magic + format version up front, so a stale or truncated file is
///    rejected before any payload is interpreted;
///  * a CRC32 per section, so flipped bits surface as a named section
///    failure rather than as garbage state;
///  * an ABI tag (pointer width, endianness, hashtable implementation),
///    because bit-exact resume depends on restoring unordered_map
///    iteration order, which is a property of the standard library;
///  * atomic write: the snapshot is written to `path + ".tmp"` and
///    renamed into place, so a crash mid-write never clobbers the
///    previous good snapshot.
///
/// Every failure throws SnapshotError with the file, section, and cause —
/// never undefined behavior (payload reads are bounds-checked by
/// util::BinReader).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ecocloud/util/binio.hpp"

namespace ecocloud::ckpt {

/// Any structural problem with a snapshot file: bad magic, unsupported
/// version, checksum mismatch, truncation, missing/duplicate sections,
/// or an ABI/config mismatch with the restoring process.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// File format constants. Bump kFormatVersion on any layout change; old
/// versions are rejected, never reinterpreted.
inline constexpr char kSnapshotMagic[8] = {'E', 'C', 'O', 'C', 'K', 'P', 'T', '1'};
/// Version 2: the sharded coordinator section stores the checkpoint
/// cadence, and a shard's event log follows its fault sections.
/// Version 3: consolidation snapshots store the checkpoint cadence
/// ("run_control") and lose the "auditor" section; no calendar carries
/// telemetry, checkpoint or audit events any more.
/// Version 4: every shard of a sharded snapshot is a DailyScenario and
/// carries its "scenario" (warmup) section, and "faults" only when its
/// slice can fault; the coordinator section drops its warmup flag and
/// stores its cross-shard rows as a metrics::EventLog.
inline constexpr std::uint32_t kFormatVersion = 4;

/// Identifies everything the byte layout silently depends on. Snapshots
/// only restore into a process with an identical tag.
[[nodiscard]] std::string abi_tag();

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of \p size bytes.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size);

struct SnapshotSection {
  std::string name;
  std::string payload;  ///< Opaque BinWriter output.
};

/// In-memory snapshot: ordered named sections.
struct Snapshot {
  std::vector<SnapshotSection> sections;

  /// Add a section; duplicate names throw SnapshotError.
  void add(std::string name, std::string payload);

  /// Find a section by name; nullptr when absent.
  [[nodiscard]] const SnapshotSection* find(const std::string& name) const;
};

/// Serialize and write atomically: the bytes go to `path + ".tmp"`,
/// fsync'd, then renamed over \p path. Throws SnapshotError on any I/O
/// failure (the temporary is removed on error).
void write_snapshot_file(const Snapshot& snapshot, const std::string& path);

/// Read and fully validate (magic, version, ABI tag, per-section CRC).
/// Throws SnapshotError naming the file and the failing section.
[[nodiscard]] Snapshot read_snapshot_file(const std::string& path);

}  // namespace ecocloud::ckpt
