// Unit and property tests for the distribution layer: closed-form values,
// quantile/cdf inversion, hazard behaviour, and sampling moments.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "stats/exponential.hpp"
#include "stats/lognormal.hpp"
#include "stats/normal.hpp"
#include "stats/special.hpp"
#include "stats/weibull.hpp"

namespace lazyckpt::stats {
namespace {

// ---------------------------------------------------------------- special
TEST(Special, NormalCdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.9750021, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.96), 0.0249979, 1e-6);
}

TEST(Special, QuantileInvertsCdf) {
  for (const double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-10) << "p=" << p;
  }
}

TEST(Special, QuantileRejectsBoundary) {
  EXPECT_THROW(normal_quantile(0.0), InvalidArgument);
  EXPECT_THROW(normal_quantile(1.0), InvalidArgument);
}

// ---------------------------------------------------------------- exponential
TEST(Exponential, ClosedFormValues) {
  const Exponential d(0.5);  // mean 2
  EXPECT_DOUBLE_EQ(d.mean(), 2.0);
  EXPECT_NEAR(d.cdf(2.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(d.pdf(0.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(d.cdf(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(d.pdf(-1.0), 0.0);
}

TEST(Exponential, HazardIsConstant) {
  const Exponential d(0.25);
  EXPECT_NEAR(d.hazard(0.1), 0.25, 1e-12);
  EXPECT_NEAR(d.hazard(100.0), 0.25, 1e-9);
}

TEST(Exponential, FromMean) {
  const auto d = Exponential::from_mean(10.0);
  EXPECT_DOUBLE_EQ(d.rate(), 0.1);
  EXPECT_THROW(Exponential::from_mean(0.0), InvalidArgument);
}

TEST(Exponential, RejectsBadRate) {
  EXPECT_THROW(Exponential(0.0), InvalidArgument);
  EXPECT_THROW(Exponential(-1.0), InvalidArgument);
}

// ---------------------------------------------------------------- weibull
TEST(Weibull, ReducesToExponentialAtShapeOne) {
  const Weibull w(1.0, 4.0);
  const Exponential e(0.25);
  for (const double x : {0.1, 1.0, 4.0, 10.0}) {
    EXPECT_NEAR(w.cdf(x), e.cdf(x), 1e-12);
    EXPECT_NEAR(w.pdf(x), e.pdf(x), 1e-12);
  }
}

TEST(Weibull, MeanMatchesGammaFormula) {
  const Weibull w(0.6, 5.0);
  EXPECT_NEAR(w.mean(), 5.0 * std::tgamma(1.0 + 1.0 / 0.6), 1e-9);
}

TEST(Weibull, FromMtbfAndShapePreservesMean) {
  for (const double k : {0.4, 0.5, 0.6, 0.7, 1.0}) {
    const auto w = Weibull::from_mtbf_and_shape(10.0, k);
    EXPECT_NEAR(w.mean(), 10.0, 1e-9) << "k=" << k;
  }
}

TEST(Weibull, HazardDecreasesForShapeBelowOne) {
  // Temporal locality: the failure rate drops as time since the last
  // failure grows (paper Fig. 12).
  const auto w = Weibull::from_mtbf_and_shape(10.0, 0.6);
  double previous = w.hazard(0.5);
  for (double t = 1.0; t <= 30.0; t += 1.0) {
    const double h = w.hazard(t);
    EXPECT_LT(h, previous) << "t=" << t;
    previous = h;
  }
}

TEST(Weibull, HazardIncreasesForShapeAboveOne) {
  const Weibull w(2.0, 10.0);
  EXPECT_LT(w.hazard(1.0), w.hazard(5.0));
}

TEST(Weibull, RejectsBadParameters) {
  EXPECT_THROW(Weibull(0.0, 1.0), InvalidArgument);
  EXPECT_THROW(Weibull(1.0, 0.0), InvalidArgument);
}

// ---------------------------------------------------------------- lognormal
TEST(LogNormal, ClosedFormMean) {
  const LogNormal d(1.0, 0.5);
  EXPECT_NEAR(d.mean(), std::exp(1.0 + 0.125), 1e-12);
}

TEST(LogNormal, MedianIsExpMu) {
  const LogNormal d(2.0, 0.7);
  EXPECT_NEAR(d.quantile(0.5), std::exp(2.0), 1e-9);
  EXPECT_NEAR(d.cdf(std::exp(2.0)), 0.5, 1e-12);
}

TEST(LogNormal, ZeroAndNegativeSupport) {
  const LogNormal d(0.0, 1.0);
  EXPECT_DOUBLE_EQ(d.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(d.pdf(-1.0), 0.0);
}

// ---------------------------------------------------------------- normal
TEST(Normal, StandardizesCorrectly) {
  const Normal d(5.0, 2.0);
  EXPECT_NEAR(d.cdf(5.0), 0.5, 1e-12);
  EXPECT_NEAR(d.quantile(0.975), 5.0 + 2.0 * 1.959963985, 1e-6);
  EXPECT_DOUBLE_EQ(d.mean(), 5.0);
}

// ------------------------------------------------- parameterized properties
struct DistCase {
  const char* label;
  std::shared_ptr<Distribution> dist;
};

// gtest copies a parameter's printed form into the ctest name; print the
// label, not the object bytes (which hold a heap address).
void PrintTo(const DistCase& param, std::ostream* os) { *os << param.label; }

class DistributionProperty : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributionProperty, QuantileInvertsCdf) {
  const auto& d = *GetParam().dist;
  for (const double p : {0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    EXPECT_NEAR(d.cdf(d.quantile(p)), p, 1e-9) << "p=" << p;
  }
}

TEST_P(DistributionProperty, CdfIsMonotone) {
  const auto& d = *GetParam().dist;
  double previous = -1.0;
  for (double x = 0.01; x < 50.0; x *= 1.7) {
    const double f = d.cdf(x);
    EXPECT_GE(f, previous);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    previous = f;
  }
}

TEST_P(DistributionProperty, SampleMeanMatchesDistributionMean) {
  const auto& d = *GetParam().dist;
  Rng rng(2024);
  const int n = 60000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += d.sample(rng);
  const double sample_mean = sum / n;
  EXPECT_NEAR(sample_mean, d.mean(), 0.08 * std::abs(d.mean()) + 0.02)
      << GetParam().label;
}

TEST_P(DistributionProperty, PdfIntegratesToCdf) {
  // Trapezoidal check on a modest range: ∫ pdf ≈ ΔCDF.
  const auto& d = *GetParam().dist;
  const double lo = 0.05;
  const double hi = 8.0;
  const int steps = 4000;
  const double dx = (hi - lo) / steps;
  double integral = 0.0;
  for (int i = 0; i < steps; ++i) {
    const double x = lo + (i + 0.5) * dx;
    integral += d.pdf(x) * dx;
  }
  EXPECT_NEAR(integral, d.cdf(hi) - d.cdf(lo), 5e-3) << GetParam().label;
}

TEST_P(DistributionProperty, CloneBehavesIdentically) {
  const auto& d = *GetParam().dist;
  const auto copy = d.clone();
  EXPECT_EQ(copy->name(), d.name());
  for (const double x : {0.2, 1.0, 3.0}) {
    EXPECT_DOUBLE_EQ(copy->cdf(x), d.cdf(x));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, DistributionProperty,
    ::testing::Values(
        DistCase{"exponential", std::make_shared<Exponential>(0.3)},
        DistCase{"weibull_k0.6",
                 std::make_shared<Weibull>(Weibull::from_mtbf_and_shape(5.0,
                                                                        0.6))},
        DistCase{"weibull_k2", std::make_shared<Weibull>(2.0, 3.0)},
        DistCase{"lognormal", std::make_shared<LogNormal>(0.5, 0.8)},
        DistCase{"normal", std::make_shared<Normal>(4.0, 1.0)}),
    [](const ::testing::TestParamInfo<DistCase>& param_info) {
      std::string name = param_info.param.label;
      for (auto& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace lazyckpt::stats
