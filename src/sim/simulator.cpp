#include "ecocloud/sim/simulator.hpp"

#include <algorithm>

#include "ecocloud/util/phase_profiler.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::sim {

bool EventHandle::pending() const {
  if (!sim_) return false;
  const Simulator::Record& rec = sim_->record(slot_);
  return rec.generation == generation_ && !rec.cancelled && !rec.fired;
}

bool EventHandle::cancel() {
  if (!pending()) {
    if (sim_) ++sim_->stats_.stale_cancels;
    return false;
  }
  // A pending record always has at least one queued entry, so the lazy
  // drain is guaranteed to release the slot eventually.
  sim_->record(slot_).cancelled = true;
  ++sim_->stats_.cancels;
  return true;
}

std::uint32_t Simulator::acquire_slot() {
  if (free_slots_.empty()) {
    util::ensure(allocated_slots_ < kMaxSlots,
                 "Simulator: too many concurrent events");
    if ((allocated_slots_ & (kChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<Record[]>(kChunkSize));
    }
    // The free list is empty, so every allocated slot is live. A restored
    // calendar starts with only its pending entries allocated, under the
    // saved run's lifetime mark, hence the max.
    stats_.slab_high_water =
        std::max(stats_.slab_high_water, allocated_slots_ + 1);
    return allocated_slots_++;
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void Simulator::release_slot(std::uint32_t slot) {
  Record& rec = record(slot);
  ++rec.generation;   // outstanding handles go stale
  rec.fn = nullptr;   // recycle the closure's state now, not at reuse
  rec.period = 0.0;
  rec.tag = EventTag{};
  rec.cancelled = false;
  rec.fired = false;
  free_slots_.push_back(slot);
}

void Simulator::sift_up(std::size_t i) {
  const QueueEntry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void Simulator::sift_down(std::size_t i) {
  const QueueEntry entry = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], entry)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
}

void Simulator::push(SimTime at, std::uint32_t slot) {
  ++record(slot).queue_refs;
  heap_.push_back(QueueEntry{at, (next_seq_++ << kSlotBits) | slot});
  sift_up(heap_.size() - 1);
}

Simulator::QueueEntry Simulator::pop_top() {
  const QueueEntry entry = heap_.front();
  const QueueEntry back = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = back;
    sift_down(0);
  }
  return entry;
}

void Simulator::drop_top() {
  const QueueEntry entry = pop_top();
  const std::uint32_t slot = entry_slot(entry);
  Record& rec = record(slot);
  ++stats_.dropped_cancelled;
  if (--rec.queue_refs == 0 && slot != executing_slot_) {
    release_slot(slot);
  }
}

Simulator::PeriodRing* Simulator::ring_for(SimTime period) {
  for (PeriodRing& ring : rings_) {
    if (ring.period == period) return &ring;
  }
  if (rings_.size() >= kMaxRings) return nullptr;
  rings_.push_back(PeriodRing{});
  rings_.back().period = period;
  return &rings_.back();
}

void Simulator::ring_push(PeriodRing& ring, QueueEntry entry) {
  if (ring.count == ring.buf.size()) {
    // Grow to the next power of two, unwrapping so the front lands at 0.
    std::vector<QueueEntry> grown(ring.buf.empty() ? 16 : 2 * ring.buf.size());
    for (std::size_t i = 0; i < ring.count; ++i) {
      grown[i] = ring.buf[(ring.head + i) & (ring.buf.size() - 1)];
    }
    ring.buf = std::move(grown);
    ring.head = 0;
  }
  ring.buf[(ring.head + ring.count) & (ring.buf.size() - 1)] = entry;
  ++ring.count;
}

Simulator::QueueEntry Simulator::ring_pop(PeriodRing& ring) {
  const QueueEntry entry = ring.buf[ring.head];
  ring.head = (ring.head + 1) & (ring.buf.size() - 1);
  --ring.count;
  return entry;
}

void Simulator::ring_drop_front(PeriodRing& ring) {
  const QueueEntry entry = ring_pop(ring);
  const std::uint32_t slot = entry_slot(entry);
  Record& rec = record(slot);
  ++stats_.dropped_cancelled;
  if (--rec.queue_refs == 0 && slot != executing_slot_) {
    release_slot(slot);
  }
}

int Simulator::select_next() {
  while (!heap_.empty() && record(entry_slot(heap_.front())).cancelled) {
    drop_top();  // lazily drop cancelled heap entries
  }
  int best = kNoSource;
  const QueueEntry* best_entry = nullptr;
  if (!heap_.empty()) {
    best = kFromHeap;
    best_entry = &heap_.front();
  }
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    PeriodRing& ring = rings_[r];
    while (ring.count > 0 && record(entry_slot(ring.front())).cancelled) {
      ring_drop_front(ring);
    }
    if (ring.count > 0 &&
        (!best_entry || earlier(ring.front(), *best_entry))) {
      best = static_cast<int>(r);
      best_entry = &ring.front();
    }
  }
  return best;
}

void Simulator::execute_next(int source) {
  const bool from_heap = source == kFromHeap;
  const QueueEntry entry =
      from_heap ? heap_.front() : rings_[static_cast<std::size_t>(source)].front();
  const std::uint32_t slot = entry_slot(entry);
  Record& rec = record(slot);
  now_ = entry.time;
  {
    // The scope covers the calendar bookkeeping only — the callback body
    // is attributed to its own phase (monitor sweep, trace advance, ...),
    // never here. Keeping the callback out keeps calendar_ops' per-call
    // durations homogeneous, which is what makes the stride-scaled
    // estimate trustworthy: one multi-second trace tick sampled inside a
    // per-event span would be extrapolated by the whole stride.
    util::ScopedPhase profile(util::Phase::kCalendarOps);
    rec.fired = true;
    ++executed_;
    ++(from_heap ? stats_.fired_from_heap : stats_.fired_from_ring);
    ++(rec.period > 0.0 ? stats_.fired_periodic : stats_.fired_one_shot);
    if (rec.period > 0.0) {
      // Re-arm the chain BEFORE invoking the callback so the handle stays
      // pending during it and cancel() from inside stops the chain (the
      // already-queued next occurrence is lazily dropped). The queue_refs
      // -1/+1 of pop + re-arm cancels out.
      rec.fired = false;
      const QueueEntry next{now_ + rec.period, (next_seq_++ << kSlotBits) | slot};
      if (!from_heap) {
        PeriodRing& ring = rings_[static_cast<std::size_t>(source)];
        ring_pop(ring);
        ring_push(ring, next);
      } else if (PeriodRing* ring = ring_for(rec.period)) {
        // First occurrence fired from the heap (phase offsets are not
        // monotone); every later one cycles through the period's ring.
        pop_top();
        ring_push(*ring, next);
      } else {
        heap_.front() = next;  // re-arm in place: one sift, not pop + push
        sift_down(0);
      }
    } else {
      --rec.queue_refs;
      if (from_heap) {
        pop_top();
      } else {
        ring_pop(rings_[static_cast<std::size_t>(source)]);
      }
    }
  }
  const std::uint32_t previous = executing_slot_;
  executing_slot_ = slot;
  // Chunked storage keeps &rec stable even when the callback schedules new
  // events and the slab grows.
  rec.fn();
  executing_slot_ = previous;
  // Release once the last queued entry is gone — unless an outer frame is
  // still executing this very record (re-entrant run() from the callback).
  if (rec.queue_refs == 0 && slot != executing_slot_) {
    release_slot(slot);
  }
}

std::size_t Simulator::pending_events() const {
  std::size_t total = heap_.size();
  for (const PeriodRing& ring : rings_) total += ring.count;
  return total;
}

EventHandle Simulator::schedule_at(SimTime at, Callback fn) {
  util::require(at >= now_, "Simulator::schedule_at: cannot schedule in the past");
  util::require(static_cast<bool>(fn), "Simulator::schedule_at: empty callback");
  const std::uint32_t slot = acquire_slot();
  Record& rec = record(slot);
  rec.fn = std::move(fn);
  push(at, slot);
  ++stats_.scheduled_one_shot;
  return EventHandle(this, slot, rec.generation);
}

EventHandle Simulator::schedule_after(SimTime delay, Callback fn) {
  util::require(delay >= 0.0, "Simulator::schedule_after: delay must be >= 0");
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Simulator::schedule_periodic(SimTime period, Callback fn, SimTime phase) {
  util::require(period > 0.0, "Simulator::schedule_periodic: period must be > 0");
  util::require(phase >= 0.0, "Simulator::schedule_periodic: phase must be >= 0");
  util::require(static_cast<bool>(fn), "Simulator::schedule_periodic: empty callback");
  const std::uint32_t slot = acquire_slot();
  Record& rec = record(slot);
  rec.fn = std::move(fn);
  rec.period = period;
  push(now_ + phase, slot);
  ++stats_.scheduled_periodic;
  return EventHandle(this, slot, rec.generation);
}

EventHandle Simulator::schedule_at(SimTime at, const EventTag& tag, Callback fn) {
  const EventHandle handle = schedule_at(at, std::move(fn));
  record(handle.slot_).tag = tag;
  return handle;
}

EventHandle Simulator::schedule_after(SimTime delay, const EventTag& tag,
                                      Callback fn) {
  const EventHandle handle = schedule_after(delay, std::move(fn));
  record(handle.slot_).tag = tag;
  return handle;
}

EventHandle Simulator::schedule_periodic(SimTime period, const EventTag& tag,
                                         Callback fn, SimTime phase) {
  const EventHandle handle = schedule_periodic(period, std::move(fn), phase);
  record(handle.slot_).tag = tag;
  return handle;
}

EngineCheckpoint Simulator::export_calendar() const {
  EngineCheckpoint ck;
  ck.now = now_;
  ck.next_seq = next_seq_;
  ck.executed = executed_;
  ck.stats = stats_;
  ck.ring_periods.reserve(rings_.size());
  for (const PeriodRing& ring : rings_) ck.ring_periods.push_back(ring.period);
  ck.entries.reserve(pending_events());
  const auto append = [this, &ck](const QueueEntry& e, std::int32_t source) {
    const Record& rec = record(entry_slot(e));
    CalendarEntry entry;
    entry.time = e.time;
    entry.seq = e.key >> kSlotBits;
    entry.period = rec.period;
    entry.source = source;
    entry.cancelled = rec.cancelled;
    entry.tag = rec.tag;
    ck.entries.push_back(entry);
  };
  for (const QueueEntry& e : heap_) append(e, kFromHeap);
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    const PeriodRing& ring = rings_[r];
    for (std::size_t i = 0; i < ring.count; ++i) {
      append(ring.buf[(ring.head + i) & (ring.buf.size() - 1)],
             static_cast<std::int32_t>(r));
    }
  }
  return ck;
}

void Simulator::import_calendar(const EngineCheckpoint& ck,
                                const RebuildFn& rebuild, const BindFn& bind) {
  util::require(next_seq_ == 0 && executed_ == 0 && pending_events() == 0 &&
                    rings_.empty(),
                "Simulator::import_calendar: target simulator is not fresh");
  util::require(static_cast<bool>(rebuild),
                "Simulator::import_calendar: rebuild function required");
  util::require(ck.ring_periods.size() <= kMaxRings,
                "Simulator::import_calendar: snapshot has too many rings");
  for (SimTime period : ck.ring_periods) {
    rings_.push_back(PeriodRing{});
    rings_.back().period = period;
  }
  for (const CalendarEntry& entry : ck.entries) {
    util::require(entry.seq < ck.next_seq,
                  "Simulator::import_calendar: entry seq beyond next_seq");
    const std::uint32_t slot = acquire_slot();
    Record& rec = record(slot);
    rec.period = entry.period;
    rec.tag = entry.tag;
    rec.cancelled = entry.cancelled;
    rec.queue_refs = 1;
    if (!entry.cancelled) {
      rec.fn = rebuild(entry.tag);
      util::require(static_cast<bool>(rec.fn),
                    "Simulator::import_calendar: rebuild returned an empty "
                    "callback");
    }
    const QueueEntry qe{entry.time, (entry.seq << kSlotBits) | slot};
    if (entry.source == kFromHeap) {
      heap_.push_back(qe);
      sift_up(heap_.size() - 1);
    } else {
      util::require(entry.source >= 0 &&
                        static_cast<std::size_t>(entry.source) < rings_.size(),
                    "Simulator::import_calendar: entry references an unknown "
                    "ring");
      PeriodRing& ring = rings_[static_cast<std::size_t>(entry.source)];
      util::require(ring.period == entry.period,
                    "Simulator::import_calendar: ring period mismatch");
      ring_push(ring, qe);
    }
    if (!entry.cancelled && bind) {
      bind(entry.tag, EventHandle(this, slot, rec.generation));
    }
  }
  // Counters restored wholesale (acquire_slot above touched slab_high_water;
  // the saved stats override it with the true lifetime value).
  now_ = ck.now;
  next_seq_ = ck.next_seq;
  executed_ = ck.executed;
  stats_ = ck.stats;
}

std::string Simulator::check_integrity() const {
  std::vector<std::uint32_t> refs(allocated_slots_, 0);
  const auto check_entry = [this, &refs](const QueueEntry& e,
                                         std::string& err) {
    const std::uint32_t slot = entry_slot(e);
    if (slot >= allocated_slots_) {
      err = "queued entry references unallocated slot " + std::to_string(slot);
      return false;
    }
    ++refs[slot];
    if (e.time < now_) {
      err = "queued entry at t=" + std::to_string(e.time) +
            " is in the past (now=" + std::to_string(now_) + ")";
      return false;
    }
    return true;
  };
  std::string err;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (!check_entry(heap_[i], err)) return err;
    if (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (earlier(heap_[i], heap_[parent])) {
        return "heap property violated at index " + std::to_string(i);
      }
    }
  }
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    const PeriodRing& ring = rings_[r];
    const QueueEntry* prev = nullptr;
    for (std::size_t i = 0; i < ring.count; ++i) {
      const QueueEntry& e = ring.buf[(ring.head + i) & (ring.buf.size() - 1)];
      if (!check_entry(e, err)) return err;
      if (record(entry_slot(e)).period != ring.period) {
        return "ring " + std::to_string(r) +
               " holds an entry whose record has a different period";
      }
      if (prev != nullptr && earlier(e, *prev)) {
        return "ring " + std::to_string(r) + " is not sorted at position " +
               std::to_string(i);
      }
      prev = &e;
    }
  }
  std::vector<bool> is_free(allocated_slots_, false);
  for (std::uint32_t slot : free_slots_) {
    if (slot >= allocated_slots_) {
      return "free list references unallocated slot " + std::to_string(slot);
    }
    if (is_free[slot]) {
      return "slot " + std::to_string(slot) + " appears twice in the free list";
    }
    is_free[slot] = true;
  }
  for (std::uint32_t slot = 0; slot < allocated_slots_; ++slot) {
    const Record& rec = record(slot);
    if (is_free[slot]) {
      if (refs[slot] != 0) {
        return "free slot " + std::to_string(slot) + " has queued entries";
      }
      continue;
    }
    if (rec.queue_refs != refs[slot]) {
      return "slot " + std::to_string(slot) + " queue_refs=" +
             std::to_string(rec.queue_refs) + " but " +
             std::to_string(refs[slot]) + " queued entries";
    }
    if (refs[slot] == 0 && slot != executing_slot_) {
      return "live slot " + std::to_string(slot) +
             " has no queued entries and is not executing";
    }
  }
  return {};
}

bool Simulator::step() {
  const int source = select_next();
  if (source == kNoSource) return false;
  execute_next(source);
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(SimTime end) {
  util::require(end >= now_, "Simulator::run_until: end precedes current time");
  for (;;) {
    // select_next already dropped every cancelled front, so the time check
    // never sends a dead entry back through another selection round.
    const int source = select_next();
    if (source == kNoSource) break;
    const QueueEntry& next = source == kFromHeap
                                 ? heap_.front()
                                 : rings_[static_cast<std::size_t>(source)].front();
    if (next.time > end) break;
    execute_next(source);
  }
  now_ = end;
}

}  // namespace ecocloud::sim
