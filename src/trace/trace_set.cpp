#include "ecocloud/trace/trace_set.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "ecocloud/trace/streaming_traces.hpp"
#include "ecocloud/util/csv.hpp"
#include "ecocloud/util/string_util.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::trace {

TraceSet TraceSet::generate(const WorkloadModel& model, std::size_t num_vms,
                            std::size_t num_steps, util::Rng& rng) {
  StreamingTraces stream =
      StreamingTraces::generate(model, num_vms, num_steps, rng);
  TraceSet set;
  set.num_steps_ = num_steps;
  set.sample_period_s_ = stream.sample_period_s();
  set.reference_mhz_ = stream.reference_mhz();
  set.series_.resize(num_vms);
  for (std::size_t v = 0; v < num_vms; ++v) {
    set.averages_.push_back(stream.average_percent(v));
    set.ram_mb_.push_back(stream.ram_mb(v));
    set.series_[v].reserve(num_steps);
  }
  for (std::size_t k = 0; k < num_steps; ++k) {
    stream.advance_to(k);
    for (std::size_t v = 0; v < num_vms; ++v) {
      set.series_[v].push_back(static_cast<float>(stream.percent_current(v)));
    }
  }
  return set;
}

TraceSet TraceSet::from_series(std::vector<std::vector<float>> series,
                               double sample_period_s, double reference_mhz,
                               double ram_mb) {
  util::require(!series.empty(), "TraceSet::from_series: no series");
  TraceSet set;
  set.num_steps_ = series.front().size();
  set.sample_period_s_ = sample_period_s;
  set.reference_mhz_ = reference_mhz;
  for (auto& s : series) {
    double total = 0.0;
    for (float x : s) total += static_cast<double>(x);
    set.averages_.push_back(total / static_cast<double>(s.size()));
    set.ram_mb_.push_back(ram_mb);
    set.series_.push_back(std::move(s));
  }
  set.validate("TraceSet::from_series");
  return set;
}

void TraceSet::validate(const char* who) const {
  const auto check = [who](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string(who) + ": " + what);
  };
  check(num_steps_ > 0, "empty series");
  check(std::isfinite(sample_period_s_) && sample_period_s_ > 0.0,
        "sample period must be finite and > 0");
  check(std::isfinite(reference_mhz_) && reference_mhz_ > 0.0,
        "reference must be finite and > 0");
  for (std::size_t v = 0; v < series_.size(); ++v) {
    check(series_[v].size() == num_steps_, "ragged series");
    check(std::isfinite(ram_mb_[v]) && ram_mb_[v] >= 0.0,
          "RAM footprints must be finite and >= 0");
    for (float x : series_[v]) {
      check(x >= 0.0f && x <= 100.0f, "samples must be in [0,100]");
    }
  }
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
  // Counts are checked before the size_t casts: a negative one would wrap.
  const long long vm_count = util::parse_int(head[0]);
  const long long step_count = util::parse_int(head[1]);
  util::require(vm_count >= 1 && step_count >= 1,
                "TraceSet::read_csv: VM and step counts must be >= 1");
  const auto num_vms = static_cast<std::size_t>(vm_count);
  const auto num_steps = static_cast<std::size_t>(step_count);
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
  set.validate("TraceSet::read_csv");
  return set;
}

}  // namespace ecocloud::trace
