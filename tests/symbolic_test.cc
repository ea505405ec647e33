// Tests for the symbolic-execution extension (Section 6.2's suggested
// improvement): affine views over retained basis samples, analytic
// same-basis combination, seed-aligned cross-basis combination, and the
// joint probabilities that rescue boolean queries.

#include <gtest/gtest.h>

#include <cmath>

#include "core/symbolic.h"
#include "models/cloud_models.h"

namespace jigsaw {
namespace {

RunConfig SymbolicConfig() {
  RunConfig cfg;
  cfg.num_samples = 500;
  cfg.fingerprint_size = 10;
  cfg.keep_samples = true;  // symbolic execution needs basis samples
  return cfg;
}

TEST(SymbolicTest, PaperExampleSameBasisAddition) {
  // X = 2 f(x) + 2, Y = 3 f(x) + 3 -> X + Y = 5 f(x) + 5.
  std::vector<double> basis = {0.0, 1.0, 2.0, -1.0};
  SymbolicVar x(0, &basis, 2.0, 2.0);
  SymbolicVar y(0, &basis, 3.0, 3.0);
  auto sum = x.Add(y, nullptr);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(sum.value().alpha(), 5.0);
  EXPECT_DOUBLE_EQ(sum.value().beta(), 5.0);
  EXPECT_DOUBLE_EQ(sum.value().SampleAt(2), 5.0 * 2.0 + 5.0);
}

TEST(SymbolicTest, SameBasisProbGreaterIsAnalytic) {
  std::vector<double> basis = {0.0, 1.0, 2.0, 3.0};
  SymbolicVar x(0, &basis, 2.0, 2.0);   // 2B+2
  SymbolicVar y(0, &basis, 3.0, 3.0);   // 3B+3
  // X > Y  <=>  -B > 1  <=>  B < -1: never, on this basis.
  auto p = x.ProbGreater(y);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p.value(), 0.0);
  // Y > X always here.
  auto q = y.ProbGreater(x);
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q.value(), 1.0);
}

TEST(SymbolicTest, EqualCoefficientTieBreaksOnOffset) {
  std::vector<double> basis = {0.0, 5.0};
  SymbolicVar x(0, &basis, 1.0, 2.0);
  SymbolicVar y(0, &basis, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(x.ProbGreater(y).value(), 1.0);
  EXPECT_DOUBLE_EQ(y.ProbGreater(x).value(), 0.0);
}

TEST(SymbolicTest, ScaleAndShiftStaySymbolic) {
  std::vector<double> basis = {1.0, 2.0};
  SymbolicVar x(0, &basis, 2.0, 1.0);
  SymbolicVar scaled = x.Scale(3.0).Shift(-1.0);
  EXPECT_DOUBLE_EQ(scaled.alpha(), 6.0);
  EXPECT_DOUBLE_EQ(scaled.beta(), 2.0);
  EXPECT_EQ(scaled.basis_id(), 0u);
}

TEST(SymbolicTest, CrossBasisCombinationUsesAlignedSamples) {
  std::vector<double> b1 = {1.0, 2.0, 3.0};
  std::vector<double> b2 = {10.0, 20.0, 30.0};
  SymbolicVar x(0, &b1, 1.0, 0.0);
  SymbolicVar y(1, &b2, 1.0, 0.0);
  std::vector<double> storage;
  auto sum = x.Add(y, &storage);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(sum.value().SampleAt(0), 11.0);
  EXPECT_DOUBLE_EQ(sum.value().SampleAt(2), 33.0);
  // Without storage, cross-basis combination must fail loudly.
  EXPECT_FALSE(x.Add(y, nullptr).ok());
}

TEST(SymbolicTest, CrossBasisSizeMismatchIsError) {
  std::vector<double> b1 = {1.0, 2.0, 3.0};
  std::vector<double> b2 = {1.0, 2.0};
  SymbolicVar x(0, &b1, 1.0, 0.0);
  SymbolicVar y(1, &b2, 1.0, 0.0);
  std::vector<double> storage;
  EXPECT_FALSE(x.Add(y, &storage).ok());
  EXPECT_FALSE(x.ProbGreater(y).ok());
}

TEST(SymbolicTest, MetricsMatchDirectComputation) {
  std::vector<double> basis = {0.0, 1.0, 2.0, 3.0, 4.0};
  SymbolicVar x(0, &basis, -2.0, 10.0);  // 10, 8, 6, 4, 2
  const OutputMetrics m = x.Metrics(false, 4);
  EXPECT_EQ(m.count, 5);
  EXPECT_DOUBLE_EQ(m.mean, 6.0);
  EXPECT_DOUBLE_EQ(m.min, 2.0);
  EXPECT_DOUBLE_EQ(m.max, 10.0);
}

TEST(SymbolicTest, ProbGreaterThanThreshold) {
  std::vector<double> basis = {0.0, 1.0, 2.0, 3.0};
  SymbolicVar x(0, &basis, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(x.ProbGreaterThan(1.5), 0.5);
  EXPECT_DOUBLE_EQ(x.ProbGreaterThan(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(x.ProbGreaterThan(5.0), 0.0);
}

TEST(SymbolicTest, FromPointRequiresRetainedSamples) {
  BlackBoxSimFunction fn(MakeDemandModel({}));
  RunConfig cfg = SymbolicConfig();
  cfg.keep_samples = false;
  SimulationRunner runner(cfg);
  const auto point = runner.RunPoint(fn, std::vector<double>{10.0, 52.0});
  EXPECT_FALSE(SymbolicVar::FromPoint(runner.basis_store(), point).ok());
}

TEST(SymbolicTest, FromPointMatchesRunnerMetrics) {
  BlackBoxSimFunction fn(MakeDemandModel({}));
  SimulationRunner runner(SymbolicConfig());
  runner.RunPoint(fn, std::vector<double>{10.0, 52.0});
  const auto reused = runner.RunPoint(fn, std::vector<double>{30.0, 52.0});
  auto sym = SymbolicVar::FromPoint(runner.basis_store(), reused);
  ASSERT_TRUE(sym.ok()) << sym.status().ToString();
  const OutputMetrics direct = reused.MappedMetrics();
  const OutputMetrics symbolic = sym.value().Metrics(false, 20);
  EXPECT_NEAR(symbolic.mean, direct.mean, 1e-9 * (1 + std::fabs(direct.mean)));
  EXPECT_NEAR(symbolic.stddev, direct.stddev, 1e-9 * (1 + direct.stddev));
}

TEST(SymbolicTest, OverloadProbabilityViaSymbolicComparison) {
  // The Section 6.2 scenario: P(demand > capacity) computed from the
  // parents' mapped bases instead of a boolean black box. Checked against
  // a direct Monte Carlo estimate of the same comparison.
  CloudModelConfig mcfg;
  auto demand_model = MakeDemandModel(mcfg);
  auto capacity_model = MakeCapacityModel(mcfg);
  BlackBoxSimFunction demand_fn(demand_model, /*call_site=*/1);
  BlackBoxSimFunction capacity_fn(capacity_model, /*call_site=*/2);

  SimulationRunner runner(SymbolicConfig());
  // Week 42 with purchase 1 still settling (ordered week 40): capacity is
  // 40 or 58 with sizeable probability each, demand ~42 +/- 2 — a
  // genuinely mixed overload outcome.
  const std::vector<double> dparams = {42.0, 52.0};
  const std::vector<double> cparams = {42.0, 40.0, 60.0};
  const auto dpoint = runner.RunPoint(demand_fn, dparams);
  const auto cpoint = runner.RunPoint(capacity_fn, cparams);
  auto dsym = SymbolicVar::FromPoint(runner.basis_store(), dpoint);
  auto csym = SymbolicVar::FromPoint(runner.basis_store(), cpoint);
  ASSERT_TRUE(dsym.ok());
  ASSERT_TRUE(csym.ok());
  auto p = dsym.value().ProbGreater(csym.value());
  ASSERT_TRUE(p.ok());

  // Reference: direct per-world comparison with the same seeds.
  const SeedVector& seeds = runner.seeds();
  std::size_t above = 0;
  const std::size_t n = runner.config().num_samples;
  for (std::size_t k = 0; k < n; ++k) {
    const double d = demand_fn.Sample(dparams, k, seeds);
    const double c = capacity_fn.Sample(cparams, k, seeds);
    if (d > c) ++above;
  }
  const double reference = static_cast<double>(above) / n;
  EXPECT_NEAR(p.value(), reference, 1e-12);
  EXPECT_GT(p.value(), 0.0);
  EXPECT_LT(p.value(), 1.0);
}

// ---------------------------------------------------------------------------
// Parallel runner determinism
// ---------------------------------------------------------------------------

TEST(ParallelRunnerTest, ThreadCountDoesNotChangeResults) {
  BlackBoxSimFunction fn(MakeCapacityModel({}));
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"week", RangeDomain{0, 19, 1}}).ok());
  ASSERT_TRUE(space.Add({"p1", SetDomain{{5.0}}}).ok());
  ASSERT_TRUE(space.Add({"p2", SetDomain{{12.0}}}).ok());

  RunConfig serial_cfg;
  serial_cfg.num_samples = 400;
  serial_cfg.num_threads = 1;
  RunConfig parallel_cfg = serial_cfg;
  parallel_cfg.num_threads = 4;

  SimulationRunner serial(serial_cfg);
  SimulationRunner parallel(parallel_cfg);
  const auto a = serial.RunSweep(fn, space);
  const auto b = parallel.RunSweep(fn, space);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const OutputMetrics ma = a[i].MappedMetrics();
    const OutputMetrics mb = b[i].MappedMetrics();
    EXPECT_DOUBLE_EQ(ma.mean, mb.mean) << "point " << i;
    EXPECT_DOUBLE_EQ(ma.stddev, mb.stddev);
    EXPECT_EQ(a[i].reused, b[i].reused);
    EXPECT_EQ(a[i].basis_id, b[i].basis_id);
  }
  EXPECT_EQ(serial.basis_store().size(), parallel.basis_store().size());
}

TEST(ParallelRunnerTest, NaiveModeAlsoDeterministic) {
  BlackBoxSimFunction fn(MakeDemandModel({}));
  RunConfig cfg;
  cfg.num_samples = 300;
  cfg.use_fingerprints = false;
  cfg.num_threads = 3;
  SimulationRunner parallel(cfg);
  cfg.num_threads = 1;
  SimulationRunner serial(cfg);
  const std::vector<double> params = {15.0, 52.0};
  EXPECT_DOUBLE_EQ(parallel.RunPoint(fn, params).MappedMetrics().mean,
                   serial.RunPoint(fn, params).MappedMetrics().mean);
}

}  // namespace
}  // namespace jigsaw
