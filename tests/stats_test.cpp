// Unit tests for ecocloud::stats — Welford, histogram, time series,
// rate windows, quantiles.

#include <gtest/gtest.h>

#include <cmath>

#include "ecocloud/stats/histogram.hpp"
#include "ecocloud/stats/quantile.hpp"
#include "ecocloud/stats/rate_window.hpp"
#include "ecocloud/stats/time_series.hpp"
#include "ecocloud/stats/welford.hpp"
#include "ecocloud/util/rng.hpp"

namespace stats = ecocloud::stats;

// ------------------------------------------------------------------- welford

TEST(Welford, EmptyAccumulator) {
  stats::Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
}

TEST(Welford, KnownMoments) {
  stats::Welford w;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.variance(), 4.0);
  EXPECT_DOUBLE_EQ(w.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 9.0);
}

TEST(Welford, SampleVarianceUsesNMinusOne) {
  stats::Welford w;
  w.add(1.0);
  w.add(3.0);
  EXPECT_DOUBLE_EQ(w.variance(), 1.0);
  EXPECT_DOUBLE_EQ(w.sample_variance(), 2.0);
}

TEST(Welford, MergeEqualsSequential) {
  stats::Welford all, a, b;
  ecocloud::util::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Welford, MergeWithEmpty) {
  stats::Welford a, empty;
  a.add(5.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  stats::Welford b;
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), 5.0);
}

TEST(Welford, NumericallyStableForLargeOffsets) {
  stats::Welford w;
  for (int i = 0; i < 1000; ++i) w.add(1e9 + (i % 2));
  EXPECT_NEAR(w.variance(), 0.25, 1e-6);
}

// ----------------------------------------------------------------- histogram

TEST(Histogram, BinningAndFrequencies) {
  stats::Histogram h(0.0, 10.0, 10);
  for (double x : {0.5, 1.5, 1.6, 9.99}) h.add(x);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(1), 2.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.frequency(1), 0.5);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
}

TEST(Histogram, UnderOverflow) {
  stats::Histogram h(0.0, 1.0, 4);
  h.add(-0.1);
  h.add(1.0);  // hi is exclusive
  h.add(2.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
}

TEST(Histogram, WeightedAdds) {
  stats::Histogram h(0.0, 1.0, 2);
  h.add(0.25, 3.0);
  h.add(0.75, 1.0);
  EXPECT_DOUBLE_EQ(h.frequency(0), 0.75);
  EXPECT_THROW(h.add(0.5, -1.0), std::invalid_argument);
}

TEST(Histogram, BinGeometry) {
  stats::Histogram h(-10.0, 10.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_width(), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_left(0), -10.0);
  EXPECT_DOUBLE_EQ(h.bin_center(1), -2.5);
  EXPECT_THROW((void)h.bin_left(4), std::invalid_argument);
}

TEST(Histogram, FractionWithinInterpolatesPartialBins) {
  stats::Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  // [0, 5) covers exactly half the mass.
  EXPECT_NEAR(h.fraction_within(0.0, 5.0), 0.5, 1e-12);
  // [0, 2.5) covers 2.5 bins worth under uniform interpolation.
  EXPECT_NEAR(h.fraction_within(0.0, 2.5), 0.25, 1e-12);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(stats::Histogram(1.0, 0.0, 5), std::invalid_argument);
  EXPECT_THROW(stats::Histogram(0.0, 1.0, 0), std::invalid_argument);
}

// --------------------------------------------------------------- time series

TEST(TimeSeries, AddAndAccess) {
  stats::TimeSeries ts("x");
  ts.add(0.0, 1.0);
  ts.add(10.0, 2.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.value(1), 2.0);
  EXPECT_THROW(ts.add(5.0, 0.0), std::invalid_argument);  // time went back
}

TEST(TimeSeries, SampleHold) {
  stats::TimeSeries ts;
  ts.add(0.0, 1.0);
  ts.add(10.0, 2.0);
  EXPECT_DOUBLE_EQ(ts.sample_hold(-1.0, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(ts.sample_hold(0.0), 1.0);
  EXPECT_DOUBLE_EQ(ts.sample_hold(9.999), 1.0);
  EXPECT_DOUBLE_EQ(ts.sample_hold(10.0), 2.0);
  EXPECT_DOUBLE_EQ(ts.sample_hold(100.0), 2.0);
}

TEST(TimeSeries, Interpolate) {
  stats::TimeSeries ts;
  ts.add(0.0, 0.0);
  ts.add(10.0, 20.0);
  EXPECT_DOUBLE_EQ(ts.interpolate(5.0), 10.0);
  EXPECT_DOUBLE_EQ(ts.interpolate(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.interpolate(15.0), 20.0);
}

TEST(TimeSeries, IntegrateHold) {
  stats::TimeSeries ts;
  ts.add(0.0, 2.0);
  ts.add(10.0, 4.0);
  // [0,10) at 2 plus [10,20] at 4 = 20 + 40.
  EXPECT_DOUBLE_EQ(ts.integrate_hold(0.0, 20.0), 60.0);
  EXPECT_DOUBLE_EQ(ts.integrate_hold(5.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(ts.integrate_hold(10.0, 10.0), 0.0);
}

TEST(TimeSeries, MeanInWindow) {
  stats::TimeSeries ts;
  for (int i = 0; i < 10; ++i) ts.add(i, i);
  EXPECT_DOUBLE_EQ(ts.mean_in(2.0, 4.0), 3.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(100.0, 200.0), 0.0);
}

TEST(TimeSeries, MinMax) {
  stats::TimeSeries ts;
  ts.add(0.0, 3.0);
  ts.add(1.0, -1.0);
  ts.add(2.0, 2.0);
  EXPECT_DOUBLE_EQ(ts.min_value(), -1.0);
  EXPECT_DOUBLE_EQ(ts.max_value(), 3.0);
}

// --------------------------------------------------------------- rate window

TEST(RateWindow, CountsPerWindow) {
  stats::RateWindow rw(1800.0);
  rw.record(100.0);
  rw.record(1799.0);
  rw.record(1800.0);
  EXPECT_EQ(rw.count_in_window(0), 2u);
  EXPECT_EQ(rw.count_in_window(1), 1u);
  EXPECT_EQ(rw.count_in_window(2), 0u);
  EXPECT_EQ(rw.total(), 3u);
}

TEST(RateWindow, HourlyRateScaling) {
  stats::RateWindow rw(1800.0);  // 30-min windows
  for (int i = 0; i < 5; ++i) rw.record(10.0 * i);
  EXPECT_DOUBLE_EQ(rw.hourly_rate(0), 10.0);  // 5 events per half hour
}

TEST(RateWindow, RejectsBadInput) {
  EXPECT_THROW(stats::RateWindow(0.0), std::invalid_argument);
  stats::RateWindow rw(10.0);
  EXPECT_THROW(rw.record(-1.0), std::invalid_argument);
}

// ----------------------------------------------------------------- quantiles

TEST(Quantile, ExactOrderStatistics) {
  stats::QuantileSketch q;
  for (double x : {5.0, 1.0, 3.0, 2.0, 4.0}) q.add(x);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(q.median(), 3.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.25), 2.0);
}

TEST(Quantile, InterpolatesBetweenSamples) {
  stats::QuantileSketch q;
  q.add(0.0);
  q.add(10.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.75), 7.5);
}

TEST(Quantile, Cdf) {
  stats::QuantileSketch q;
  q.add_all({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(q.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(q.cdf(2.0), 0.5);
  EXPECT_DOUBLE_EQ(q.cdf(10.0), 1.0);
}

TEST(Quantile, ErrorsOnEmptyOrBadQ) {
  stats::QuantileSketch q;
  EXPECT_THROW((void)q.quantile(0.5), std::invalid_argument);
  q.add(1.0);
  EXPECT_THROW((void)q.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)q.quantile(1.1), std::invalid_argument);
}

TEST(Quantile, FreeFunctionMatchesSketch) {
  EXPECT_DOUBLE_EQ(stats::quantile_of({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Quantile, AddAfterQueryResorts) {
  stats::QuantileSketch q;
  q.add(5.0);
  EXPECT_DOUBLE_EQ(q.median(), 5.0);
  q.add(1.0);
  q.add(9.0);
  EXPECT_DOUBLE_EQ(q.median(), 5.0);
  q.add(0.0);
  q.add(0.5);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 0.0);
}
