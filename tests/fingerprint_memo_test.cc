// Tests for the run-scoped fingerprint memo (core/fingerprint_memo.h): a
// model call replayed from the memo must be bit-identical to evaluating
// it, from the FingerprintMemo itself up to a full Figure 1 OPTIMIZE
// against its interpreted twin, which never consults the memo.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/fingerprint_memo.h"
#include "core/sim_runner.h"
#include "grid_test_util.h"
#include "models/cloud_models.h"
#include "sql/binder.h"
#include "sql/script_runner.h"

namespace jigsaw {
namespace {

// The paper's Figure 1 script: 3 x 14 x 14 groups x 53 weeks = 31,164
// points. DemandModel reads two of the four parameters, so it has only
// 3 x 53 = 159 distinct argument tuples.
constexpr const char* kFigure1 = R"(
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @feature_release AS SET (12,36,44);
SELECT DemandModel(@current_week, @feature_release) AS demand,
       CapacityModel(@current_week, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
OPTIMIZE SELECT @feature_release, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.01
GROUP BY feature_release, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2
)";
constexpr std::uint64_t kFigure1Points = 3 * 14 * 14 * 53;
constexpr std::uint64_t kDemandTuples = 3 * 53;

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void ExpectBitIdentical(std::span<const double> a, std::span<const double> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(Bits(a[i]), Bits(b[i])) << "entry " << i;
  }
}

/// Forwards to a model and counts the EvalBatch calls over exactly
/// `span_size` samples (the fingerprint, when no tail chunk has that
/// size).
class CountingModel final : public BlackBox {
 public:
  CountingModel(BlackBoxPtr inner, std::size_t span_size)
      : inner_(std::move(inner)), span_size_(span_size) {}

  const std::string& name() const override { return inner_->name(); }
  const std::vector<std::string>& param_names() const override {
    return inner_->param_names();
  }
  double Eval(std::span<const double> params,
              RandomStream& rng) const override {
    return inner_->Eval(params, rng);
  }
  void EvalBatch(std::span<const double> params, SeedSpan seeds,
                 std::uint64_t call_site,
                 std::span<double> out) const override {
    if (out.size() == span_size_) calls_.fetch_add(1);
    inner_->EvalBatch(params, seeds, call_site, out);
  }

  std::uint64_t calls() const { return calls_.load(); }

 private:
  BlackBoxPtr inner_;
  std::size_t span_size_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

/// The memo-less reference: samples [0, m) of one model call.
std::vector<double> Direct(const BlackBox& model, const SeedVector& seeds,
                           std::size_t m, std::vector<double> args,
                           std::uint64_t site) {
  std::vector<double> out(m);
  model.EvalBatch(args, seeds.span(0, m), site, out);
  return out;
}

// ---------------------------------------------------------------------------
// FingerprintMemo
// ---------------------------------------------------------------------------

TEST(FingerprintMemoTest, ReplaysTheDrawsOfARepeatedCall) {
  const SeedVector seeds(7, 50);
  FingerprintMemo memo(seeds, 10);
  const BlackBoxPtr demand = MakeDemandModel();
  const std::vector<double> args = {20, 36};
  std::vector<double> first(10), second(10);
  memo.Eval(demand, args, 3, first);
  EXPECT_EQ(memo.hits(), 0u);
  memo.Eval(demand, args, 3, second);
  EXPECT_EQ(memo.hits(), 1u);
  ExpectBitIdentical(first, Direct(*demand, seeds, 10, args, 3));
  ExpectBitIdentical(second, first);
}

TEST(FingerprintMemoTest, CoversOnlyItsOwnSeedsAndFingerprintSpan) {
  const SeedVector seeds(7, 50);
  const SeedVector same_master(7, 50);
  FingerprintMemo memo(seeds, 10);
  EXPECT_TRUE(memo.Covers(&seeds, 0, 10));
  EXPECT_FALSE(memo.Covers(&same_master, 0, 10));  // another vector
  EXPECT_FALSE(memo.Covers(&seeds, 10, 10));       // a tail chunk
  EXPECT_FALSE(memo.Covers(&seeds, 0, 7));         // a partial span
  EXPECT_FALSE(memo.Covers(nullptr, 0, 10));
}

TEST(FingerprintMemoTest, OneModelAtTwoCallSitesGetsDistinctDraws) {
  const SeedVector seeds(11, 20);
  FingerprintMemo memo(seeds, 8);
  const BlackBoxPtr demand = MakeDemandModel();
  const std::vector<double> args = {30, 12};
  std::vector<double> site1(8), site2(8);
  for (int round = 0; round < 2; ++round) {
    memo.Eval(demand, args, 1, site1);
    memo.Eval(demand, args, 2, site2);
    ExpectBitIdentical(site1, Direct(*demand, seeds, 8, args, 1));
    ExpectBitIdentical(site2, Direct(*demand, seeds, 8, args, 2));
    EXPECT_NE(site1, site2);
  }
  EXPECT_EQ(memo.hits(), 2u);
}

TEST(FingerprintMemoTest, SignedZerosAndNaNPayloadsAreDistinctKeys) {
  const SeedVector seeds(3, 4);
  FingerprintMemo memo(seeds, 4);
  // A model that can tell the keys apart: equal under ==, or unordered,
  // but not the same bits.
  const BlackBoxPtr sign = std::make_shared<CallableBlackBox>(
      "Sign", std::vector<std::string>{"x"},
      [](std::span<const double> p, RandomStream&) {
        return std::signbit(p[0]) ? 1.0 : 0.0;
      });
  const BlackBoxPtr payload = std::make_shared<CallableBlackBox>(
      "Payload", std::vector<std::string>{"x"},
      [](std::span<const double> p, RandomStream&) {
        return static_cast<double>(Bits(p[0]) & 0xff);
      });
  const double nan1 = std::bit_cast<double>(0x7ff8000000000001ULL);
  const double nan2 = std::bit_cast<double>(0x7ff8000000000002ULL);
  ASSERT_TRUE(std::isnan(nan1) && std::isnan(nan2));

  std::vector<double> out(4);
  for (int round = 0; round < 2; ++round) {
    const std::vector<double> plus_zero = {0.0};
    const std::vector<double> minus_zero = {-0.0};
    memo.Eval(sign, plus_zero, 1, out);
    EXPECT_EQ(out, std::vector<double>(4, 0.0));
    memo.Eval(sign, minus_zero, 1, out);
    EXPECT_EQ(out, std::vector<double>(4, 1.0));
    const std::vector<double> first_nan = {nan1};
    const std::vector<double> second_nan = {nan2};
    memo.Eval(payload, first_nan, 2, out);
    EXPECT_EQ(out, std::vector<double>(4, 1.0));
    memo.Eval(payload, second_nan, 2, out);
    EXPECT_EQ(out, std::vector<double>(4, 2.0));
  }
  // The second round hit all four keys, NaNs included: a key matches
  // its own bits even though NaN != NaN.
  EXPECT_EQ(memo.hits(), 4u);
}

TEST(FingerprintMemoTest, MoreDistinctKeysThanCapacityStayExact) {
  const SeedVector seeds(5, 16);
  constexpr std::size_t kM = 16;
  FingerprintMemo memo(seeds, kM);
  const BlackBoxPtr demand = MakeDemandModel();
  // Far more tuples than one table's byte budget holds.
  const std::size_t entry_bytes = (2 + kM) * sizeof(double);
  const std::size_t keys = 4 * FingerprintMemo::kTableBytes / entry_bytes;
  std::vector<double> out(kM);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t k = 0; k < keys; ++k) {
      const std::vector<double> args = {static_cast<double>(k % 53),
                                        static_cast<double>(k / 53)};
      memo.Eval(demand, args, 9, out);
      ExpectBitIdentical(out, Direct(*demand, seeds, kM, args, 9));
      if (HasFailure()) return;
    }
  }
  // The first round filled the table and the second replayed what it
  // kept: some keys, within the budget, and not all of them.
  EXPECT_GT(memo.hits(), 0u);
  EXPECT_LE(memo.hits() * entry_bytes, FingerprintMemo::kTableBytes);
}

TEST(FingerprintMemoTest, CallSitesPastTheTableLimitAreEvaluatedDirectly) {
  const SeedVector seeds(5, 8);
  FingerprintMemo memo(seeds, 8);
  const BlackBoxPtr demand = MakeDemandModel();
  const std::vector<double> args = {10, 44};
  std::vector<double> out(8);
  const std::uint64_t sites = FingerprintMemo::kMaxTables + 3;
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t site = 0; site < sites; ++site) {
      memo.Eval(demand, args, site, out);
      ExpectBitIdentical(out, Direct(*demand, seeds, 8, args, site));
    }
  }
  EXPECT_EQ(memo.hits(), FingerprintMemo::kMaxTables);
}

// ---------------------------------------------------------------------------
// Pre-derived streams
// ---------------------------------------------------------------------------

/// Argument tuples that reach every branch of each cloud model's kernel.
std::vector<std::vector<double>> BranchArgs(const std::string& model) {
  if (model == "DemandModel") {
    // After, before and at the feature release.
    return {{20, 12}, {10, 36}, {12, 12}};
  }
  if (model == "CapacityModel" || model == "OverloadModel") {
    // Both purchases settled or pending, both in the future, one each,
    // and a zero delta.
    return {{30, 10, 28}, {30, 40, 50}, {30, 29.5, 45}, {5, 5, 60}};
  }
  if (model == "UserSelectionModel") return {{0}, {26}, {52}};
  if (model == "SynthBasisModel") return {{0}, {3}, {17}};
  if (model == "SeasonalDemandModel" || model == "OutageModel") {
    return {{0}, {13}, {52}};
  }
  ADD_FAILURE() << "no branch arguments for model " << model;
  return {};
}

/// The starting streams of samples [0, m) of `seeds` at `site`.
std::vector<RandomStream> StartStreams(const SeedVector& seeds,
                                       std::size_t m, std::uint64_t site) {
  std::vector<RandomStream> streams;
  for (std::size_t i = 0; i < m; ++i) {
    streams.push_back(seeds.StreamFor(i, site));
  }
  return streams;
}

TEST(FingerprintStreamTest, CarriedStreamsMatchDerivationForEveryModel) {
  ModelRegistry registry;
  ASSERT_TRUE(RegisterCloudModels(&registry).ok());
  const SeedVector seeds(21, 16);
  const SeedVector other(22, 16);
  constexpr std::uint64_t kSite = 5;
  for (const std::string& name : registry.ModelNames()) {
    const BlackBoxPtr model = registry.Lookup(name).value();
    for (std::size_t m : {2u, 10u}) {
      for (const std::vector<double>& args : BranchArgs(name)) {
        SCOPED_TRACE(::testing::Message() << name << " m=" << m);
        const std::vector<RandomStream> own = StartStreams(seeds, m, kSite);
        std::vector<double> carried(m);
        model->EvalBatch(args, seeds.span(0, m).WithStreams(own, kSite),
                         kSite, carried);
        ExpectBitIdentical(carried, Direct(*model, seeds, m, args, kSite));
        // The kernel draws from the carried streams: another vector's
        // streams give that vector's draws.
        const std::vector<RandomStream> foreign =
            StartStreams(other, m, kSite);
        model->EvalBatch(args, seeds.span(0, m).WithStreams(foreign, kSite),
                         kSite, carried);
        ExpectBitIdentical(carried, Direct(*model, other, m, args, kSite));
      }
    }
  }
}

TEST(FingerprintStreamTest, StreamsOfAnotherCallSiteFallBackToDerivation) {
  ModelRegistry registry;
  ASSERT_TRUE(RegisterCloudModels(&registry).ok());
  const SeedVector seeds(21, 10);
  const SeedVector other(22, 10);
  // Streams carried for site 5 (from another vector, so a wrongly used
  // copy would show) while the model draws at site 6.
  const std::vector<RandomStream> site5 = StartStreams(other, 10, 5);
  for (const std::string& name : registry.ModelNames()) {
    SCOPED_TRACE(name);
    const BlackBoxPtr model = registry.Lookup(name).value();
    const std::vector<double> args = BranchArgs(name).front();
    std::vector<double> out(10);
    model->EvalBatch(args, seeds.span(0, 10).WithStreams(site5, 5), 6, out);
    ExpectBitIdentical(out, Direct(*model, seeds, 10, args, 6));
  }
}

TEST(FingerprintStreamTest, OnlySchemaV1TablesDeriveStreams) {
  const BlackBoxPtr demand = MakeDemandModel();
  const std::vector<double> args = {20, 12};
  for (SeedSchema schema : {SeedSchema::kV1, SeedSchema::kV2}) {
    const SeedVector seeds(9, 10, schema);
    FingerprintMemo memo(seeds, 10);
    std::vector<double> out(10);
    for (std::uint64_t site = 1; site <= 3; ++site) {
      memo.Eval(demand, args, site, out);
      ExpectBitIdentical(out, Direct(*demand, seeds, 10, args, site));
    }
    EXPECT_EQ(memo.tables_with_streams(),
              schema == SeedSchema::kV1 ? 3u : 0u);
  }
}

// ---------------------------------------------------------------------------
// Through the compiled program and the runner
// ---------------------------------------------------------------------------

class FingerprintMemoSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(RegisterCloudModels(&registry_).ok());
  }

  /// Binds `script`; with `interpreted`, the compiled programs are
  /// stripped (the twin that never consults the memo).
  sql::BoundScript Bind(const std::string& script, bool interpreted) {
    auto bound = sql::ParseAndBind(script, registry_);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    if (!bound.ok()) return {};
    if (interpreted) sql::UseInterpretedExpressions(bound.value());
    return std::move(bound.value());
  }

  ModelRegistry registry_;
};

TEST_F(FingerprintMemoSqlTest, SameModelTwiceInOneColumnKeepsBothSites) {
  // With a memo keyed without the call site, the second call would replay
  // the first one's draws and every difference would be zero.
  const std::string script =
      "DECLARE PARAMETER @w AS RANGE 1 TO 4 STEP BY 1;"
      "SELECT DemandModel(@w, 12) - DemandModel(@w, 12) AS diff INTO r;";
  const sql::BoundScript compiled = Bind(script, false);
  const sql::BoundScript interpreted = Bind(script, true);
  ASSERT_TRUE(compiled.program && compiled.program->compiled());
  RunConfig cfg;
  cfg.num_samples = 100;
  SimulationRunner with_memo(cfg);
  SimulationRunner reference(cfg);
  for (int round = 0; round < 2; ++round) {
    for (double w = 1; w <= 4; ++w) {
      const std::vector<double> params = {w};
      const PointResult a =
          with_memo.RunPoint(*compiled.scenario.columns[0].fn, params);
      const PointResult b =
          reference.RunPoint(*interpreted.scenario.columns[0].fn, params);
      test::ExpectMetricsBitIdentical(a.MappedMetrics(), b.MappedMetrics());
      EXPECT_GT(a.MappedMetrics().stddev, 0.0);
    }
  }
  // Round two replays both sites at every point.
  EXPECT_EQ(with_memo.stats().fingerprint_memo_hits, 2u * 4u);
  EXPECT_EQ(reference.stats().fingerprint_memo_hits, 0u);
}

TEST_F(FingerprintMemoSqlTest, RunnersWithDifferentSeedsNeverShareEntries) {
  const std::string script =
      "DECLARE PARAMETER @w AS RANGE 1 TO 6 STEP BY 1;"
      "SELECT DemandModel(@w, 36) AS demand INTO r;";
  const sql::BoundScript bound = Bind(script, false);
  const SimFunction& fn = *bound.scenario.columns[0].fn;
  RunConfig a_cfg, b_cfg;
  a_cfg.num_samples = b_cfg.num_samples = 50;
  a_cfg.master_seed = 101;
  b_cfg.master_seed = 202;
  // `b` runs interleaved with `a` on the same model, site and arguments;
  // `alone` runs b's sequence of points by itself.
  SimulationRunner a(a_cfg), b(b_cfg), alone(b_cfg);
  for (int round = 0; round < 2; ++round) {
    for (double w = 1; w <= 6; ++w) {
      const std::vector<double> params = {w};
      const PointResult ra = a.RunPoint(fn, params);
      const PointResult rb = b.RunPoint(fn, params);
      const PointResult ralone = alone.RunPoint(fn, params);
      test::ExpectMetricsBitIdentical(rb.MappedMetrics(),
                                      ralone.MappedMetrics());
      EXPECT_NE(Bits(ra.Metric(MetricSelector::kExpect)),
                Bits(rb.Metric(MetricSelector::kExpect)));
    }
  }
  EXPECT_EQ(b.stats().fingerprint_memo_hits,
            alone.stats().fingerprint_memo_hits);
  EXPECT_EQ(b.stats().fingerprint_memo_hits, 6u);
  // And a memo consulted under another runner's seeds stays out of it.
  const std::vector<double> params = {2};
  std::vector<double> via_memo(10), direct(10);
  FingerprintMemo memo_a(a.seeds(), 10);
  fn.SampleFingerprint(params, a.seeds(), via_memo, &memo_a);
  fn.SampleFingerprint(params, b.seeds(), via_memo, &memo_a);
  fn.SampleBatch(params, 0, b.seeds(), direct);
  ExpectBitIdentical(via_memo, direct);
  EXPECT_EQ(memo_a.hits(), 0u);
}

TEST_F(FingerprintMemoSqlTest, Figure1DemandIsEvaluatedOncePerDistinctTuple) {
  constexpr std::size_t kM = 10;
  ModelRegistry counted;
  ASSERT_TRUE(RegisterCloudModels(&counted).ok());
  auto demand = std::make_shared<CountingModel>(
      counted.Lookup("DemandModel").value(), kM);
  counted.RegisterOrReplace(demand);

  RunConfig cfg;
  cfg.num_samples = 200;  // tail chunks of 64 and 62: never kM samples
  cfg.fingerprint_size = kM;
  cfg.batch_size = 64;
  sql::ScriptRunner runner(&counted, cfg);
  auto outcome = runner.Run(kFigure1);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const RunnerStats& stats = outcome.value().runner_stats;
  ASSERT_EQ(stats.points_evaluated, kFigure1Points);
  EXPECT_EQ(demand->calls(), kDemandTuples);
  // Every DemandModel fingerprint call past a tuple's first is a hit.
  EXPECT_GE(stats.fingerprint_memo_hits, kFigure1Points - kDemandTuples);
  EXPECT_GE(static_cast<double>(stats.fingerprint_memo_hits),
            0.99 * static_cast<double>(kFigure1Points));
}

TEST_F(FingerprintMemoSqlTest, Figure1OptimizeMatchesTheInterpretedTwin) {
  auto run = [&](bool compiled, std::size_t threads, std::size_t batch) {
    RunConfig cfg;
    cfg.num_samples = 200;
    cfg.num_threads = threads;
    cfg.batch_size = batch;
    cfg.compile_expressions = compiled;
    sql::ScriptRunner runner(&registry_, cfg);
    auto outcome = runner.Run(kFigure1);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return outcome.ok() ? std::move(outcome.value()) : sql::ScriptOutcome{};
  };
  const sql::ScriptOutcome twin = run(false, 1, 64);
  ASSERT_TRUE(twin.optimize.has_value());
  EXPECT_EQ(twin.runner_stats.fingerprint_memo_hits, 0u);

  std::uint64_t grid_hits = 0;
  test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
    const sql::ScriptOutcome got = run(true, threads, batch);
    ASSERT_TRUE(got.optimize.has_value());
    const OptimizeResult& a = *got.optimize;
    const OptimizeResult& b = *twin.optimize;
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.best_valuation, b.best_valuation);
    ASSERT_EQ(a.groups.size(), b.groups.size());
    for (std::size_t g = 0; g < a.groups.size(); ++g) {
      EXPECT_EQ(a.groups[g].group_valuation, b.groups[g].group_valuation);
      EXPECT_EQ(a.groups[g].feasible, b.groups[g].feasible) << "group " << g;
      ExpectBitIdentical(a.groups[g].constraint_lhs,
                         b.groups[g].constraint_lhs);
      if (HasFailure()) return;
    }
    EXPECT_EQ(got.basis_count, twin.basis_count);
    EXPECT_EQ(got.runner_stats.points_evaluated,
              twin.runner_stats.points_evaluated);
    EXPECT_EQ(got.runner_stats.points_reused,
              twin.runner_stats.points_reused);
    EXPECT_EQ(got.runner_stats.blackbox_invocations,
              twin.runner_stats.blackbox_invocations);
    // The memo runs on the calling thread only, so its hits cannot
    // depend on the pool or the chunking.
    if (grid_hits == 0) grid_hits = got.runner_stats.fingerprint_memo_hits;
    EXPECT_EQ(got.runner_stats.fingerprint_memo_hits, grid_hits);
  });
  EXPECT_GE(static_cast<double>(grid_hits),
            0.99 * static_cast<double>(kFigure1Points));
}

}  // namespace
}  // namespace jigsaw
