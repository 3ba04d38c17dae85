#pragma once

/// \file event_merge.hpp
/// \brief Deterministic (K+1)-way merge of per-shard event-log segments.
///
/// Each shard records its decision events in local ids; the coordinator
/// adds its own cross-shard rows (already global). Stitching them into
/// one stream must be a pure function of the inputs so a sharded run's
/// event CSV is bit-identical across thread counts and resume chains:
/// rows are ordered by (time, stream index) — strictly earlier time
/// first, ties broken by the position of the stream in the input vector
/// (shards in shard order, the coordinator last). Translation to global
/// ids happens per stream at emission via an optional callback.

#include <functional>
#include <iosfwd>
#include <vector>

#include "ecocloud/metrics/event_log.hpp"

namespace ecocloud::par {

/// One merge input: a time-ordered segment plus the per-row translation
/// into global ids (empty = rows are already global).
struct EventStream {
  const std::vector<metrics::Event>* events = nullptr;
  std::function<metrics::Event(const metrics::Event&)> translate;
};

/// Receives the merged rows one at a time, in output order.
using EventSink = std::function<void(const metrics::Event&)>;

/// Stable merge of the streams by (time, stream index), handing each row
/// to \p sink after its stream's translation callback. Every input must be
/// internally time-ordered. Nothing is buffered, so a sink that writes
/// straight to a file keeps the merge at O(K) extra memory.
void merge_event_streams(const std::vector<EventStream>& streams,
                         const EventSink& sink);

/// Write \p events in metrics::EventLog::write_csv's exact row format
/// (header, precision, -1 sentinels) so K=1 reproduces its bytes.
void write_merged_events_csv(std::ostream& out,
                             const std::vector<metrics::Event>& events);

}  // namespace ecocloud::par
