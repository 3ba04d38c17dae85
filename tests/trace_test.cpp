// Unit tests for the synthetic workload substrate: diurnal pattern,
// workload model calibration, trace sets, arrival processes, rate
// estimation.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "ecocloud/stats/histogram.hpp"
#include "ecocloud/stats/welford.hpp"
#include "ecocloud/trace/arrivals.hpp"
#include "ecocloud/trace/diurnal.hpp"
#include "ecocloud/trace/rate_estimator.hpp"
#include "ecocloud/trace/streaming_traces.hpp"
#include "ecocloud/trace/trace_set.hpp"
#include "ecocloud/trace/workload_model.hpp"

namespace trace = ecocloud::trace;
namespace stats = ecocloud::stats;
using ecocloud::util::Rng;

// ------------------------------------------------------------------- diurnal

TEST(Diurnal, PeaksAtConfiguredHour) {
  trace::DiurnalPattern g(0.3, 14.0);
  EXPECT_NEAR(g.value(14.0 * 3600.0), 1.3, 1e-12);
  EXPECT_NEAR(g.value(2.0 * 3600.0), 0.7, 1e-12);  // trough 12 h later
}

TEST(Diurnal, MeanOverDayIsOne) {
  trace::DiurnalPattern g(0.25, 10.0);
  double acc = 0.0;
  const int n = 24 * 60;
  for (int i = 0; i < n; ++i) acc += g.value(i * 60.0);
  EXPECT_NEAR(acc / n, 1.0, 1e-6);
}

TEST(Diurnal, PeriodIs24Hours) {
  trace::DiurnalPattern g(0.2, 14.0);
  for (double h : {0.0, 5.5, 13.0, 23.9}) {
    EXPECT_NEAR(g.value(h * 3600.0), g.value((h + 24.0) * 3600.0), 1e-12);
  }
}

TEST(Diurnal, BoundsAndValidation) {
  trace::DiurnalPattern g(0.22, 14.0);
  EXPECT_DOUBLE_EQ(g.min(), 0.78);
  EXPECT_DOUBLE_EQ(g.max(), 1.22);
  EXPECT_THROW(trace::DiurnalPattern(1.0, 14.0), std::invalid_argument);
  EXPECT_THROW(trace::DiurnalPattern(0.2, 24.0), std::invalid_argument);
}

TEST(Diurnal, ZeroAmplitudeIsFlat) {
  trace::DiurnalPattern g(0.0, 14.0);
  for (double h = 0.0; h < 24.0; h += 1.0) {
    EXPECT_DOUBLE_EQ(g.value(h * 3600.0), 1.0);
  }
}

// ------------------------------------------------------------ workload model

TEST(WorkloadModel, BinWeightsNormalizableAndDecreasingTail) {
  const auto& w = trace::WorkloadModel::average_bin_weights();
  ASSERT_EQ(w.size(), 20u);
  double total = 0.0;
  for (double x : w) {
    EXPECT_GT(x, 0.0);
    total += x;
  }
  EXPECT_NEAR(total, 1.0, 0.05);
  // Mass concentrated below 20% (paper Fig. 4).
  EXPECT_GT(w[0] + w[1] + w[2] + w[3], 0.6);
  // Tail decreasing beyond the mode.
  for (std::size_t i = 2; i + 1 < w.size(); ++i) {
    EXPECT_GE(w[i], w[i + 1]);
  }
}

TEST(WorkloadModel, ExpectedAverageMatchesSampling) {
  trace::WorkloadModel model;
  Rng rng(1);
  stats::Welford acc;
  for (int i = 0; i < 50000; ++i) {
    acc.add(model.sample_average_percent(rng));
  }
  EXPECT_NEAR(acc.mean(), trace::WorkloadModel::expected_average_percent(), 0.3);
  EXPECT_GE(acc.min(), 0.0);
  EXPECT_LE(acc.max(), 100.0);
}

TEST(WorkloadModel, Fig4ShapeMostVmsUnder20Percent) {
  trace::WorkloadModel model;
  Rng rng(2);
  stats::Histogram h(0.0, 100.0, 20);
  for (int i = 0; i < 20000; ++i) h.add(model.sample_average_percent(rng));
  EXPECT_GT(h.fraction_within(0.0, 20.0), 0.6);
  EXPECT_LT(h.fraction_within(50.0, 100.0), 0.12);
}

TEST(WorkloadModel, SeriesWithinBoundsAndRightLength) {
  trace::WorkloadModel model;
  Rng rng(3);
  const auto series = model.generate_series(rng, 15.0, 500);
  ASSERT_EQ(series.size(), 500u);
  for (float x : series) {
    EXPECT_GE(x, 0.0f);
    EXPECT_LE(x, 100.0f);
  }
}

TEST(WorkloadModel, Fig5DeviationsMostlyWithinTenPoints) {
  trace::WorkloadConfig cfg;
  trace::WorkloadModel model(cfg);
  Rng rng(4);
  std::size_t total = 0, within = 0;
  for (int vm = 0; vm < 300; ++vm) {
    const double avg = model.sample_average_percent(rng);
    const auto series = model.generate_series(rng, avg, 576);
    for (float x : series) {
      ++total;
      if (std::fabs(static_cast<double>(x) - avg) < 10.0) ++within;
    }
  }
  // Paper: ~94% of deviations below 10 points.
  EXPECT_GT(static_cast<double>(within) / static_cast<double>(total), 0.85);
}

TEST(WorkloadModel, DeviationsCenteredNearZero) {
  trace::WorkloadModel model;
  Rng rng(5);
  stats::Welford dev;
  for (int vm = 0; vm < 200; ++vm) {
    const double avg = model.sample_average_percent(rng);
    for (float x : model.generate_series(rng, avg, 288)) {
      dev.add(static_cast<double>(x) - avg);
    }
  }
  EXPECT_NEAR(dev.mean(), 0.0, 1.0);
}

TEST(WorkloadModel, SeriesAutocorrelated) {
  trace::WorkloadConfig cfg;
  cfg.diurnal = trace::DiurnalPattern(0.0, 14.0);  // isolate the AR(1) part
  trace::WorkloadModel model(cfg);
  Rng rng(6);
  const auto series = model.generate_series(rng, 30.0, 2000);
  // Lag-1 autocorrelation of deviations should be near rho = 0.7.
  double mean = 0.0;
  for (float x : series) mean += x;
  mean /= static_cast<double>(series.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i + 1 < series.size(); ++i) {
    num += (series[i] - mean) * (series[i + 1] - mean);
    den += (series[i] - mean) * (series[i] - mean);
  }
  EXPECT_NEAR(num / den, 0.7, 0.1);
}

TEST(WorkloadModel, PercentToMhz) {
  trace::WorkloadModel model;
  EXPECT_DOUBLE_EQ(model.percent_to_mhz(50.0), 1000.0);
}

TEST(WorkloadModel, ValidatesConfig) {
  trace::WorkloadConfig bad;
  bad.ar1_rho = 1.0;
  EXPECT_THROW(trace::WorkloadModel{bad}, std::invalid_argument);
  trace::WorkloadConfig bad2;
  bad2.reference_mhz = 0.0;
  EXPECT_THROW(trace::WorkloadModel{bad2}, std::invalid_argument);
}

// ----------------------------------------------------------------- trace set

TEST(TraceSet, GenerateShapes) {
  trace::WorkloadModel model;
  Rng rng(7);
  const auto set = trace::TraceSet::generate(model, 50, 100, rng);
  EXPECT_EQ(set.num_vms(), 50u);
  EXPECT_EQ(set.num_steps(), 100u);
  EXPECT_DOUBLE_EQ(set.sample_period_s(), 300.0);
  for (std::size_t v = 0; v < set.num_vms(); ++v) {
    EXPECT_GE(set.average_percent(v), 0.0);
    EXPECT_LE(set.average_percent(v), 100.0);
    EXPECT_GE(set.ram_mb(v), 512.0);
  }
}

TEST(TraceSet, StepsWrapAround) {
  trace::WorkloadModel model;
  Rng rng(8);
  const auto set = trace::TraceSet::generate(model, 3, 10, rng);
  EXPECT_DOUBLE_EQ(set.percent_at(0, 3), set.percent_at(0, 13));
}

TEST(TraceSet, StepAtMapsTime) {
  trace::WorkloadModel model;
  Rng rng(9);
  const auto set = trace::TraceSet::generate(model, 1, 10, rng);
  EXPECT_EQ(set.step_at(0.0), 0u);
  EXPECT_EQ(set.step_at(299.9), 0u);
  EXPECT_EQ(set.step_at(300.0), 1u);
  EXPECT_EQ(set.step_at(3000.0), 10u);
}

TEST(TraceSet, DemandMhzConsistentWithPercent) {
  trace::WorkloadModel model;
  Rng rng(10);
  const auto set = trace::TraceSet::generate(model, 5, 5, rng);
  for (std::size_t v = 0; v < 5; ++v) {
    EXPECT_NEAR(set.demand_mhz_at(v, 2),
                set.percent_at(v, 2) / 100.0 * set.reference_mhz(), 1e-9);
  }
}

TEST(TraceSet, CsvRoundTrip) {
  trace::WorkloadModel model;
  Rng rng(11);
  const auto set = trace::TraceSet::generate(model, 4, 6, rng);
  std::stringstream buffer;
  set.write_csv(buffer);
  const auto loaded = trace::TraceSet::read_csv(buffer);
  EXPECT_EQ(loaded.num_vms(), set.num_vms());
  EXPECT_EQ(loaded.num_steps(), set.num_steps());
  for (std::size_t v = 0; v < set.num_vms(); ++v) {
    EXPECT_NEAR(loaded.average_percent(v), set.average_percent(v), 1e-4);
    for (std::size_t k = 0; k < set.num_steps(); ++k) {
      EXPECT_NEAR(loaded.percent_at(v, k), set.percent_at(v, k), 1e-3);
    }
  }
}

TEST(TraceSet, ReadRejectsMalformed) {
  std::istringstream empty("");
  EXPECT_THROW(trace::TraceSet::read_csv(empty), std::invalid_argument);
  std::istringstream bad_header("1,2\n");
  EXPECT_THROW(trace::TraceSet::read_csv(bad_header), std::invalid_argument);
}

TEST(TraceSet, TotalDemand) {
  trace::WorkloadModel model;
  Rng rng(12);
  const auto set = trace::TraceSet::generate(model, 10, 3, rng);
  double expected = 0.0;
  for (std::size_t v = 0; v < 10; ++v) expected += set.demand_mhz_at(v, 1);
  EXPECT_NEAR(set.total_demand_mhz_at(1), expected, 1e-9);
}

// ------------------------------------------------------------------ arrivals

TEST(PoissonArrivals, HomogeneousRateMatches) {
  trace::PoissonArrivals arrivals([](double) { return 0.1; }, 0.1);
  Rng rng(13);
  double t = 0.0;
  int count = 0;
  while (t < 100000.0) {
    t = arrivals.next_after(t, rng);
    ++count;
  }
  EXPECT_NEAR(count / 100000.0, 0.1, 0.005);
}

TEST(PoissonArrivals, ThinningTracksTimeVaryingRate) {
  // Rate 0.2 in the first half, 0.02 in the second.
  trace::PoissonArrivals arrivals(
      [](double t) { return t < 50000.0 ? 0.2 : 0.02; }, 0.2);
  Rng rng(14);
  double t = 0.0;
  int first = 0, second = 0;
  while (t < 100000.0) {
    t = arrivals.next_after(t, rng);
    if (t < 50000.0) {
      ++first;
    } else if (t < 100000.0) {
      ++second;
    }
  }
  EXPECT_NEAR(first / 50000.0, 0.2, 0.01);
  EXPECT_NEAR(second / 50000.0, 0.02, 0.005);
}

TEST(PoissonArrivals, StrictlyIncreasing) {
  trace::PoissonArrivals arrivals([](double) { return 1.0; }, 1.0);
  Rng rng(15);
  double t = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double next = arrivals.next_after(t, rng);
    EXPECT_GT(next, t);
    t = next;
  }
}

TEST(PoissonArrivals, RejectsRateAboveEnvelope) {
  trace::PoissonArrivals arrivals([](double) { return 2.0; }, 1.0);
  Rng rng(16);
  EXPECT_THROW(arrivals.next_after(0.0, rng), std::invalid_argument);
}

TEST(ExponentialLifetime, MeanMatches) {
  Rng rng(17);
  double acc = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) acc += trace::exponential_lifetime(1.0 / 3600.0, rng);
  EXPECT_NEAR(acc / n, 3600.0, 60.0);
}

// ------------------------------------------------------------ rate estimator

TEST(RateEstimator, LambdaPerWindow) {
  trace::RateEstimator est(100.0);
  for (int i = 0; i < 10; ++i) est.record_arrival(i * 10.0);  // window 0
  est.record_arrival(150.0);                                  // window 1
  EXPECT_DOUBLE_EQ(est.lambda(50.0), 0.1);
  EXPECT_DOUBLE_EQ(est.lambda(150.0), 0.01);
  EXPECT_DOUBLE_EQ(est.lambda(1000.0), 0.0);
  EXPECT_DOUBLE_EQ(est.lambda_max(), 0.1);
}

TEST(RateEstimator, NuFromDeparturesAndPopulation) {
  trace::RateEstimator est(100.0);
  // 5 departures in window 0, each seen with population 100:
  // nu = 5 / (100 s * 100 VMs) = 5e-4.
  for (int i = 0; i < 5; ++i) est.record_departure(i * 20.0, 100);
  EXPECT_NEAR(est.nu(50.0), 5e-4, 1e-12);
  EXPECT_DOUBLE_EQ(est.nu(500.0), 0.0);
}

TEST(RateEstimator, FunctionsAreSelfContainedCopies) {
  trace::RateEstimator est(100.0);
  est.record_arrival(10.0);
  const auto fn = est.lambda_fn();
  est.record_arrival(20.0);  // not visible to the captured copy
  EXPECT_DOUBLE_EQ(fn(50.0), 0.01);
  EXPECT_DOUBLE_EQ(est.lambda(50.0), 0.02);
}

TEST(RateEstimator, Validation) {
  EXPECT_THROW(trace::RateEstimator(0.0), std::invalid_argument);
  trace::RateEstimator est(10.0);
  EXPECT_THROW(est.record_arrival(-1.0), std::invalid_argument);
  EXPECT_THROW(est.record_departure(0.0, 0), std::invalid_argument);
}

// -------------------------------------------------------- streaming traces

namespace {

// Full generator state, bitwise: one raw draw after generation would miss
// a wrong cached Box-Muller half.
void expect_same_state(const Rng& a, const Rng& b) {
  const Rng::State sa = a.state();
  const Rng::State sb = b.state();
  EXPECT_EQ(sa.s, sb.s);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.cached_normal),
            std::bit_cast<std::uint64_t>(sb.cached_normal));
  EXPECT_EQ(sa.has_cached_normal, sb.has_cached_normal);
}

}  // namespace

TEST(StreamingTraces, BitIdenticalToMaterializedGeneration) {
  trace::WorkloadConfig config;
  trace::WorkloadModel model(config);
  constexpr std::size_t kVms = 40;

  // A row's series block is 1 + steps normals, so an even and an odd step
  // count leave the shared stream with and without a cached half per row.
  for (const std::size_t steps : {std::size_t{119}, std::size_t{120}}) {
    SCOPED_TRACE(testing::Message() << "steps = " << steps);
    // Reference: every draw made on the shared stream itself, one normal()
    // at a time, as generation worked before rows were fast-forwarded.
    Rng rng_ref(12345);
    std::vector<double> expected_avg;
    std::vector<double> expected_ram;
    std::vector<std::vector<float>> expected;
    for (std::size_t v = 0; v < kVms; ++v) {
      expected_avg.push_back(model.sample_average_percent(rng_ref));
      expected_ram.push_back(model.sample_ram_mb(rng_ref));
      expected.push_back(model.generate_series(rng_ref, expected_avg[v], steps));
    }

    Rng rng_a(12345);
    Rng rng_b(12345);
    const trace::TraceSet set = trace::TraceSet::generate(model, kVms, steps, rng_a);
    trace::StreamingTraces bank =
        trace::StreamingTraces::generate(model, kVms, steps, rng_b);

    ASSERT_EQ(bank.num_vms(), set.num_vms());
    ASSERT_EQ(bank.num_steps(), set.num_steps());
    EXPECT_DOUBLE_EQ(bank.sample_period_s(), set.sample_period_s());
    EXPECT_DOUBLE_EQ(bank.reference_mhz(), set.reference_mhz());
    for (std::size_t v = 0; v < kVms; ++v) {
      // Exact equality, not NEAR: the draws and arithmetic must be identical.
      ASSERT_EQ(bank.average_percent(v), set.average_percent(v)) << "vm " << v;
      ASSERT_EQ(bank.ram_mb(v), set.ram_mb(v)) << "vm " << v;
      ASSERT_EQ(set.average_percent(v), expected_avg[v]) << "vm " << v;
      ASSERT_EQ(set.ram_mb(v), expected_ram[v]) << "vm " << v;
    }
    for (std::size_t k = 0; k < steps; ++k) {
      bank.advance_to(k);
      ASSERT_EQ(bank.current_step(), k);
      for (std::size_t v = 0; v < kVms; ++v) {
        ASSERT_EQ(set.percent_at(v, k), static_cast<double>(expected[v][k]))
            << "vm " << v << " step " << k;
        ASSERT_EQ(bank.percent_current(v), set.percent_at(v, k))
            << "vm " << v << " step " << k;
        ASSERT_EQ(bank.demand_mhz_current(v), set.demand_mhz_at(v, k))
            << "vm " << v << " step " << k;
      }
    }
    // Every generator must leave the shared stream where the reference
    // does, or the controller/fault draws downstream of trace generation
    // would diverge.
    expect_same_state(rng_a, rng_ref);
    expect_same_state(rng_b, rng_ref);
  }
}

TEST(StreamingTraces, AdvancePastGapMatchesMaterialized) {
  trace::WorkloadConfig config;
  trace::WorkloadModel model(config);
  Rng rng_a(777);
  Rng rng_b(777);
  const trace::TraceSet set = trace::TraceSet::generate(model, 5, 50, rng_a);
  trace::StreamingTraces bank = trace::StreamingTraces::generate(model, 5, 50, rng_b);
  // Jump straight to a far step: the lazy replay must land on the same
  // values as stepping one at a time (checkpoint fast-forward path).
  bank.advance_to(37);
  for (std::size_t v = 0; v < 5; ++v) {
    ASSERT_EQ(bank.percent_current(v), set.percent_at(v, 37)) << "vm " << v;
  }
}

TEST(StreamingTraces, RejectsRewindAndOverrun) {
  trace::WorkloadConfig config;
  trace::WorkloadModel model(config);
  Rng rng(1);
  trace::StreamingTraces bank = trace::StreamingTraces::generate(model, 3, 10, rng);
  bank.advance_to(4);
  EXPECT_THROW(bank.advance_to(3), std::invalid_argument);
  EXPECT_THROW(bank.advance_to(10), std::invalid_argument);
  EXPECT_NO_THROW(bank.advance_to(4));  // idempotent at the current step
  EXPECT_THROW((void)bank.step_at(-1.0), std::invalid_argument);
}

TEST(StreamingTraces, GenerateValidation) {
  trace::WorkloadConfig config;
  trace::WorkloadModel model(config);
  Rng rng(1);
  EXPECT_THROW(trace::StreamingTraces::generate(model, 0, 10, rng),
               std::invalid_argument);
  EXPECT_THROW(trace::StreamingTraces::generate(model, 3, 0, rng),
               std::invalid_argument);
}

TEST(StreamingTraces, PartitionedBanksMatchMonolithicGeneration) {
  trace::WorkloadConfig config;
  trace::WorkloadModel model(config);
  constexpr std::size_t kVms = 41;  // not divisible by K: uneven banks
  constexpr std::size_t kSteps = 60;

  for (const std::size_t num_banks : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "K = " << num_banks);
    Rng rng_a(4242);
    Rng rng_b(4242);
    trace::StreamingTraces whole =
        trace::StreamingTraces::generate(model, kVms, kSteps, rng_a);
    std::vector<trace::StreamingTraces> banks =
        trace::StreamingTraces::generate_partitioned(model, kVms, kSteps, rng_b,
                                                     num_banks);
    ASSERT_EQ(banks.size(), num_banks);
    // Both generators must consume the shared stream identically, or the
    // controller/fault draws downstream of trace generation would diverge
    // between a sharded streaming run and every other mode.
    expect_same_state(rng_a, rng_b);

    for (std::size_t v = 0; v < kVms; ++v) {
      trace::StreamingTraces& bank = banks[v % num_banks];
      // num_vms() stays GLOBAL (the TraceDriver validates global indices);
      // residency is per bank, following ShardPlan::shard_of_trace's rule.
      ASSERT_EQ(bank.num_vms(), kVms);
      ASSERT_TRUE(bank.has_row(v));
      if (num_banks > 1) {
        EXPECT_FALSE(banks[(v + 1) % num_banks].has_row(v));
      }
      ASSERT_EQ(bank.average_percent(v), whole.average_percent(v)) << "vm " << v;
      ASSERT_EQ(bank.ram_mb(v), whole.ram_mb(v)) << "vm " << v;
    }
    for (const std::size_t step : {std::size_t{1}, std::size_t{17}, kSteps - 1}) {
      whole.advance_to(step);
      for (auto& bank : banks) bank.advance_to(step);
      for (std::size_t v = 0; v < kVms; ++v) {
        ASSERT_EQ(banks[v % num_banks].percent_current(v), whole.percent_current(v))
            << "vm " << v << " step " << step;
      }
    }
  }
}

TEST(StreamingTraces, AdoptedRowTracksItsHomeBankExactly) {
  trace::WorkloadConfig config;
  trace::WorkloadModel model(config);
  Rng rng_a(99);
  Rng rng_b(99);
  trace::StreamingTraces whole =
      trace::StreamingTraces::generate(model, 10, 40, rng_a);
  std::vector<trace::StreamingTraces> banks =
      trace::StreamingTraces::generate_partitioned(model, 10, 40, rng_b, 2);

  // Row 3 lives in bank 1; bank 0 cannot drive it before adoption.
  EXPECT_THROW((void)banks[0].percent_current(3), std::invalid_argument);
  EXPECT_THROW(banks[0].adopt_row(99, banks[1]), std::invalid_argument);

  // Adoption is only exact when both banks sit at the same step.
  banks[1].advance_to(5);
  EXPECT_THROW(banks[0].adopt_row(3, banks[1]), std::invalid_argument);
  banks[0].advance_to(5);
  banks[0].adopt_row(3, banks[1]);
  ASSERT_TRUE(banks[0].has_row(3));
  banks[0].adopt_row(3, banks[1]);  // idempotent no-op

  whole.advance_to(5);
  ASSERT_EQ(banks[0].percent_current(3), whole.percent_current(3));
  // The copy advances independently of its home bank yet reproduces the
  // row bit for bit at every later step — the property the cross-shard
  // hand-off relies on.
  for (std::size_t step = 6; step < 40; ++step) {
    whole.advance_to(step);
    banks[0].advance_to(step);
    banks[1].advance_to(step);
    ASSERT_EQ(banks[0].percent_current(3), whole.percent_current(3)) << step;
    ASSERT_EQ(banks[1].percent_current(3), whole.percent_current(3)) << step;
  }
}
