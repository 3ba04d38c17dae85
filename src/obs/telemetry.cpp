#include "ecocloud/obs/telemetry.hpp"

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "ecocloud/obs/profiler.hpp"

namespace ecocloud::obs {

namespace {

/// ts_sim of a JSONL record; every Logger line starts {"ts_sim":<num>.
double ts_of(std::string_view line) {
  constexpr std::string_view kPrefix = "{\"ts_sim\":";
  if (line.substr(0, kPrefix.size()) != kPrefix) return 0.0;
  return std::strtod(line.data() + kPrefix.size(), nullptr);
}

}  // namespace

Telemetry::Telemetry(std::vector<ObservedCalendar> calendars, Options options)
    : log_out_(options.log_level != LogLevel::kOff ? options.log_out : nullptr),
      buffered_(calendars.size() > 1) {
  stacks_.reserve(calendars.size());
  for (ObservedCalendar& calendar : calendars) {
    auto stack = std::make_unique<Stack>();
    if (log_out_ != nullptr) {
      stack->logger.set_sink(buffered_ ? &stack->log_buffer : log_out_);
      stack->logger.set_level(options.log_level);
      stack->logger.set_clock([sim = calendar.simulator] { return sim->now(); });
      if (calendar.shard.sharded) stack->logger.bind_field("shard", calendar.shard.shard);
    }
    if (options.trace) stack->trace = std::make_unique<ChromeTraceWriter>();
    stack->instrumentation = std::make_unique<Instrumentation>(
        registry_, stack->logger, stack->trace.get(), std::move(calendar.shard));
    stack->instrumentation->attach_engine(*calendar.simulator);
    stack->instrumentation->attach_datacenter(*calendar.datacenter);
    stack->instrumentation->attach_controller(*calendar.controller);
    if (calendar.faults != nullptr) stack->instrumentation->attach_faults(*calendar.faults);
    stacks_.push_back(std::move(stack));
  }
}

void Telemetry::attach_robustness(std::function<RobustnessSample()> sample) {
  robustness_ = std::move(sample);
  registry_.counter_fn("ecocloud_checkpoints_written_total",
                       [this] { return robustness_().checkpoints_written; }, {},
                       "Crash-safe snapshots written");
  registry_.gauge_fn(
      "ecocloud_checkpoint_bytes_last",
      [this] { return static_cast<double>(robustness_().snapshot_bytes_last); }, {},
      "Payload size of the most recent snapshot");
  registry_.gauge_fn("ecocloud_checkpoint_save_seconds_total",
                     [this] { return robustness_().save_wall_seconds_total; }, {},
                     "Wall-clock time spent writing snapshots");
  registry_.counter_fn("ecocloud_audits_run_total",
                       [this] { return robustness_().audits_run; }, {},
                       "Invariant audits executed");
  registry_.counter_fn("ecocloud_audits_failed_total",
                       [this] { return robustness_().audits_failed; }, {},
                       "Invariant audits that found at least one violation");
  registry_.counter_fn("ecocloud_audit_heals_total",
                       [this] { return robustness_().heals_applied; }, {},
                       "Cache-rebuild heal actions applied by the auditor");
}

void Telemetry::flush_now(sim::SimTime now) {
  for (auto& stack : stacks_) stack->instrumentation->flush_now(now);
  emit_profile(now);
}

void Telemetry::finalize(sim::SimTime end) {
  for (auto& stack : stacks_) stack->instrumentation->finalize(end);
  emit_profile(end);
  if (buffered_ && log_out_ != nullptr) {
    merge_logs();
    log_out_->flush();
  }
}

void Telemetry::emit_profile(sim::SimTime now) {
  ChromeTraceWriter* trace = stacks_.front()->trace.get();
  if (profiler_ != nullptr && trace != nullptr) profiler_->emit_counter_track(*trace, now);
}

void Telemetry::merge_logs() {
  // K-way merge by ts_sim, ties to the lower calendar index: each calendar's records
  // are in time order (its simulator is the clock), so a stable sort of the buffers
  // concatenated in calendar order is one.
  std::vector<std::string> text;
  for (auto& stack : stacks_) text.push_back(stack->log_buffer.str());
  std::vector<std::pair<double, std::string_view>> lines;
  for (const std::string& t : text) {
    for (std::size_t pos = 0; pos < t.size();) {
      const std::size_t stop = std::min(t.find('\n', pos), t.size() - 1) + 1;
      const std::string_view line(t.data() + pos, stop - pos);
      lines.emplace_back(ts_of(line), line);
      pos = stop;
    }
  }
  std::stable_sort(lines.begin(), lines.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [ts, line] : lines) *log_out_ << line;
}

void Telemetry::write_trace(std::ostream& out) {
  ChromeTraceWriter merged;
  for (auto& stack : stacks_) {
    if (stack->trace) merged.absorb(std::move(*stack->trace));
  }
  merged.write(out);
}

std::uint64_t Telemetry::log_lines() const {
  std::uint64_t total = 0;
  for (const auto& stack : stacks_) total += stack->logger.lines_written();
  return total;
}

}  // namespace ecocloud::obs
