#include "ecocloud/trace/streaming_traces.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ecocloud/util/validation.hpp"

namespace ecocloud::trace {

StreamingTraces StreamingTraces::generate(const WorkloadModel& model,
                                          std::size_t num_vms,
                                          std::size_t num_steps,
                                          util::Rng& rng) {
  return std::move(
      generate_partitioned(model, num_vms, num_steps, rng, 1).front());
}

std::vector<StreamingTraces> StreamingTraces::generate_partitioned(
    const WorkloadModel& model, std::size_t num_vms, std::size_t num_steps,
    util::Rng& rng, std::size_t num_banks) {
  util::require(num_banks > 0,
                "StreamingTraces::generate_partitioned: num_banks must be > 0");
  util::require(num_vms > 0,
                "StreamingTraces::generate_partitioned: num_vms must be > 0");
  util::require(num_steps > 0,
                "StreamingTraces::generate_partitioned: num_steps must be > 0");

  std::vector<StreamingTraces> banks;
  banks.reserve(num_banks);
  for (std::size_t k = 0; k < num_banks; ++k) {
    StreamingTraces bank;
    bank.num_steps_ = num_steps;
    bank.config_ = model.config();
    bank.stride_ = num_banks;
    bank.offset_ = k;
    bank.total_vms_ = num_vms;
    const std::size_t owned =
        num_vms / num_banks + (k < num_vms % num_banks ? 1 : 0);
    bank.averages_.reserve(owned);
    bank.ram_mb_.reserve(owned);
    bank.dev_.reserve(owned);
    bank.values_.reserve(owned);
    bank.cursors_.reserve(owned);
    banks.push_back(std::move(bank));
  }

  const double diurnal0 = model.config().diurnal.value(0.0);
  // One pass over the shared stream, drawing the rows in order whatever
  // the bank count; only the bank each row's columns land in differs. Row
  // v is stored at slot v / num_banks of bank v % num_banks, so the
  // per-bank append order is the global row order restricted to the bank
  // — slot() stays arithmetic.
  for (std::size_t v = 0; v < num_vms; ++v) {
    StreamingTraces& bank = banks[v % num_banks];
    const TraceRow row = model.draw_row(rng, num_steps);
    const double base = row.average_percent * diurnal0;
    bank.averages_.push_back(row.average_percent);
    bank.ram_mb_.push_back(row.ram_mb);
    bank.dev_.push_back(row.deviation);
    bank.values_.push_back(
        static_cast<float>(std::clamp(base + row.deviation, 0.0, 100.0)));
    bank.cursors_.push_back(row.cursor);
  }
  return banks;
}

std::size_t StreamingTraces::slot(std::size_t v) const {
  if (stride_ == 1) return v;
  if (v % stride_ == offset_) return v / stride_;
  const auto it = foreign_.find(v);
  util::require(it != foreign_.end(),
                "StreamingTraces: trace row is resident in another bank — "
                "adopt_row it before driving it from this shard");
  return it->second;
}

bool StreamingTraces::has_row(std::size_t v) const {
  if (v >= total_vms_) return false;
  if (stride_ == 1) return true;
  return v % stride_ == offset_ || foreign_.find(v) != foreign_.end();
}

void StreamingTraces::adopt_row(std::size_t v, const StreamingTraces& home) {
  if (has_row(v)) return;
  util::require(v < total_vms_,
                "StreamingTraces::adopt_row: row index out of range");
  util::require(home.has_row(v),
                "StreamingTraces::adopt_row: source bank does not hold the row");
  util::require(home.current_step_ == current_step_,
                "StreamingTraces::adopt_row: banks sit at different steps — "
                "adoption is only exact at a barrier, where every bank has "
                "advanced to the same sample");
  const std::size_t s = home.slot(v);
  foreign_.emplace(v, averages_.size());
  averages_.push_back(home.averages_[s]);
  ram_mb_.push_back(home.ram_mb_[s]);
  dev_.push_back(home.dev_[s]);
  values_.push_back(home.values_[s]);
  cursors_.push_back(home.cursors_[s]);
}

std::size_t StreamingTraces::step_at(sim::SimTime t) const {
  util::require(t >= 0.0, "StreamingTraces::step_at: negative time");
  return static_cast<std::size_t>(t / config_.sample_period_s);
}

void StreamingTraces::advance_to(std::size_t step) {
  util::require(step >= current_step_,
                "StreamingTraces::advance_to: cursors cannot rewind");
  util::require(step < num_steps_,
                "StreamingTraces::advance_to: step beyond generated horizon");
  const double rho = config_.ar1_rho;
  const double stationary_to_innovation = std::sqrt(1.0 - rho * rho);
  const std::size_t n = averages_.size();
  while (current_step_ < step) {
    ++current_step_;
    const double diurnal = config_.diurnal.value(static_cast<double>(current_step_) *
                                                 config_.sample_period_s);
    for (std::size_t v = 0; v < n; ++v) {
      const double avg = averages_[v];
      const double sigma = config_.dev_base + config_.dev_slope * avg;
      const double innovation_scale = sigma * stationary_to_innovation;
      const double dev =
          rho * dev_[v] + cursors_[v].normal(0.0, innovation_scale);
      dev_[v] = dev;
      const double base = avg * diurnal;
      values_[v] = static_cast<float>(std::clamp(base + dev, 0.0, 100.0));
    }
  }
}

}  // namespace ecocloud::trace
