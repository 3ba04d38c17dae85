#include "ecocloud/trace/trace_set.hpp"

#include <istream>
#include <ostream>

#include "ecocloud/util/csv.hpp"
#include "ecocloud/util/string_util.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::trace {

TraceSet TraceSet::generate(const WorkloadModel& model, std::size_t num_vms,
                            std::size_t num_steps, util::Rng& rng) {
  util::require(num_vms > 0, "TraceSet::generate: num_vms must be > 0");
  util::require(num_steps > 0, "TraceSet::generate: num_steps must be > 0");
  TraceSet set;
  set.num_steps_ = num_steps;
  set.sample_period_s_ = model.config().sample_period_s;
  set.reference_mhz_ = model.config().reference_mhz;
  set.averages_.reserve(num_vms);
  set.ram_mb_.reserve(num_vms);
  set.series_.reserve(num_vms);
  const std::vector<double> diurnal = model.diurnal_factors(num_steps);
  for (std::size_t v = 0; v < num_vms; ++v) {
    TraceRow row = model.draw_row(rng, num_steps);
    set.averages_.push_back(row.average_percent);
    set.ram_mb_.push_back(row.ram_mb);
    set.series_.push_back(model.generate_series(row, diurnal));
  }
  return set;
}

TraceSet TraceSet::from_series(std::vector<std::vector<float>> series,
                               double sample_period_s, double reference_mhz,
                               double ram_mb) {
  util::require(!series.empty(), "TraceSet::from_series: no series");
  util::require(sample_period_s > 0.0, "TraceSet::from_series: bad period");
  util::require(reference_mhz > 0.0, "TraceSet::from_series: bad reference");
  const std::size_t steps = series.front().size();
  util::require(steps > 0, "TraceSet::from_series: empty series");
  TraceSet set;
  set.num_steps_ = steps;
  set.sample_period_s_ = sample_period_s;
  set.reference_mhz_ = reference_mhz;
  for (auto& s : series) {
    util::require(s.size() == steps, "TraceSet::from_series: ragged series");
    double total = 0.0;
    for (float x : s) {
      util::require(x >= 0.0f && x <= 100.0f,
                    "TraceSet::from_series: samples must be in [0,100]");
      total += static_cast<double>(x);
    }
    set.averages_.push_back(total / static_cast<double>(steps));
    set.ram_mb_.push_back(ram_mb);
    set.series_.push_back(std::move(s));
  }
  return set;
}

double TraceSet::average_percent(std::size_t v) const { return averages_.at(v); }

double TraceSet::ram_mb(std::size_t v) const { return ram_mb_.at(v); }

std::size_t TraceSet::step_at(sim::SimTime t) const {
  util::require(t >= 0.0, "TraceSet::step_at: negative time");
  return static_cast<std::size_t>(t / sample_period_s_);
}

double TraceSet::total_demand_mhz_at(std::size_t k) const {
  double acc = 0.0;
  for (std::size_t v = 0; v < series_.size(); ++v) acc += demand_mhz_at(v, k);
  return acc;
}

void TraceSet::write_csv(std::ostream& out) const {
  util::CsvWriter writer(out, 6);
  writer.comment("ecocloud trace set");
  writer.field(static_cast<long long>(num_vms()))
      .field(static_cast<long long>(num_steps_))
      .field(sample_period_s_)
      .field(reference_mhz_);
  writer.end_row();
  for (std::size_t v = 0; v < series_.size(); ++v) {
    writer.field(static_cast<long long>(v)).field(averages_[v]).field(ram_mb_[v]);
    for (float x : series_[v]) writer.field(static_cast<double>(x));
    writer.end_row();
  }
}

TraceSet TraceSet::read_csv(std::istream& in) {
  const auto rows = util::read_csv(in);
  util::require(!rows.empty(), "TraceSet::read_csv: empty input");
  const auto& head = rows.front();
  util::require(head.size() == 4, "TraceSet::read_csv: malformed header row");
  const auto num_vms = static_cast<std::size_t>(util::parse_int(head[0]));
  const auto num_steps = static_cast<std::size_t>(util::parse_int(head[1]));
  TraceSet set;
  set.num_steps_ = num_steps;
  set.sample_period_s_ = util::parse_double(head[2]);
  set.reference_mhz_ = util::parse_double(head[3]);
  util::require(rows.size() == num_vms + 1, "TraceSet::read_csv: row count mismatch");
  for (std::size_t v = 0; v < num_vms; ++v) {
    const auto& row = rows[v + 1];
    util::require(row.size() == 3 + num_steps,
                  "TraceSet::read_csv: sample count mismatch");
    set.averages_.push_back(util::parse_double(row[1]));
    set.ram_mb_.push_back(util::parse_double(row[2]));
    std::vector<float> series;
    series.reserve(num_steps);
    for (std::size_t k = 0; k < num_steps; ++k) {
      series.push_back(static_cast<float>(util::parse_double(row[3 + k])));
    }
    set.series_.push_back(std::move(series));
  }
  return set;
}

}  // namespace ecocloud::trace
