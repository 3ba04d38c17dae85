#include "ecocloud/core/trace_driver.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "ecocloud/util/snapshot.hpp"
#include "ecocloud/util/phase_profiler.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::core {

TraceDriver::TraceDriver(sim::Simulator& simulator, dc::DataCenter& datacenter,
                         const trace::TraceSet& traces)
    : sim_(simulator), dc_(datacenter), traces_(&traces) {}

TraceDriver::TraceDriver(sim::Simulator& simulator, dc::DataCenter& datacenter,
                         trace::StreamingTraces& streaming)
    : sim_(simulator), dc_(datacenter), streaming_(&streaming) {}

std::size_t TraceDriver::num_rows() const {
  return traces_ != nullptr ? traces_->num_vms() : streaming_->num_vms();
}

double TraceDriver::ram_mb(std::size_t trace_index) const {
  return traces_ != nullptr ? traces_->ram_mb(trace_index)
                            : streaming_->ram_mb(trace_index);
}

sim::SimTime TraceDriver::source_sample_period_s() const {
  return traces_ != nullptr ? traces_->sample_period_s()
                            : streaming_->sample_period_s();
}

void TraceDriver::sync_streaming(sim::SimTime now) const {
  if (streaming_ != nullptr) streaming_->advance_to(streaming_->step_at(now));
}

void TraceDriver::map_vm(std::size_t trace_index, dc::VmId vm) {
  util::require(trace_index < num_rows(),
                "TraceDriver::map_vm: bad trace index");
  vm_to_trace_[vm] = trace_index;
  dc_.set_vm_demand(sim_.now(), vm, current_demand_mhz(trace_index));
}

void TraceDriver::unmap_vm(dc::VmId vm) { vm_to_trace_.erase(vm); }

void TraceDriver::adopt_row(std::size_t trace_index, const TraceDriver& home) {
  if (streaming_ == nullptr) return;
  util::require(home.streaming_ != nullptr,
                "TraceDriver::adopt_row: home drives loaded traces");
  streaming_->adopt_row(trace_index, *home.streaming_);
}

double TraceDriver::current_demand_mhz(std::size_t trace_index) const {
  if (traces_ != nullptr) {
    return traces_->demand_mhz_at(trace_index, traces_->step_at(sim_.now()));
  }
  sync_streaming(sim_.now());
  return streaming_->demand_mhz_current(trace_index);
}

void TraceDriver::start() {
  util::ensure(!started_, "TraceDriver::start called twice");
  started_ = true;
  const sim::SimTime period = source_sample_period_s();
  sim_.schedule_periodic(period,
                         sim::EventTag{sim::tag_owner::kTraceDriver, kEvTick, 0, 0},
                         [this] { tick(); }, period);
}

void TraceDriver::save_state(util::BinWriter& w) const {
  w.boolean(started_);
  util::save_unordered(w, vm_to_trace_,
                       [](util::BinWriter& out, dc::VmId vm, std::size_t trace_index) {
                         out.u64(vm);
                         out.u64(trace_index);
                       });
}

void TraceDriver::load_state(util::BinReader& r) {
  started_ = r.boolean();
  util::load_unordered(r, vm_to_trace_, [this](util::BinReader& in) {
    const auto vm = static_cast<dc::VmId>(in.u64());
    const auto trace_index = static_cast<std::size_t>(in.u64());
    util::require(trace_index < num_rows(),
                  "TraceDriver: snapshot trace index out of range");
    return std::make_pair(vm, trace_index);
  });
}

sim::Simulator::Callback TraceDriver::rebuild_event(const sim::EventTag& tag) {
  if (tag.kind == kEvTick) return [this] { tick(); };
  throw std::runtime_error("TraceDriver: snapshot contains an unknown event kind " +
                           std::to_string(tag.kind));
}

void TraceDriver::tick() {
  util::ScopedPhase profile(util::Phase::kTraceAdvance);
  const sim::SimTime now = sim_.now();
  if (traces_ != nullptr) {
    const std::size_t step = traces_->step_at(now);
    for (const auto& [vm, trace_index] : vm_to_trace_) {
      dc_.set_vm_demand(now, vm, traces_->demand_mhz_at(trace_index, step));
    }
    return;
  }
  sync_streaming(now);
  for (const auto& [vm, trace_index] : vm_to_trace_) {
    dc_.set_vm_demand(now, vm, streaming_->demand_mhz_current(trace_index));
  }
}

}  // namespace ecocloud::core
