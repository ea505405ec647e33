// The column-summary kernel (core/column_summary.h) against a sort-based
// reference: Welford moments over the samples in order, quantiles over a
// copy sorted by IEEE totalOrder, and Histogram::FromSamples. Generated
// inputs run over span layouts x thread counts at the kernel level, and
// through FoldVGColumns over batch x threads x columnar/boxed.

#include "core/column_summary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <compare>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "grid_test_util.h"
#include "pdb/monte_carlo.h"
#include "pdb/table.h"
#include "pdb/vg_table.h"
#include "random/seed_vector.h"
#include "util/math_util.h"
#include "util/thread_pool.h"

namespace jigsaw {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The reference summary: the estimator's definition, computed the slow
/// and obvious way.
OutputMetrics Reference(const std::vector<double>& samples, bool keep_samples,
                        int bins) {
  OutputMetrics out;
  WelfordAccumulator acc;
  acc.AddSpan(samples);
  out.count = acc.count();
  out.mean = acc.mean();
  out.stddev = acc.stddev();
  out.std_error = acc.standard_error();
  out.min = acc.count() ? acc.min() : 0.0;
  out.max = acc.count() ? acc.max() : 0.0;
  std::vector<double> finite;
  for (double x : samples) {
    if (std::isfinite(x)) finite.push_back(x);
  }
  std::sort(finite.begin(), finite.end(), [](double a, double b) {
    return std::strong_order(a, b) < 0;  // IEEE totalOrder
  });
  if (!finite.empty()) {
    out.p05 = QuantileSorted(finite, 0.05);
    out.p50 = QuantileSorted(finite, 0.50);
    out.p95 = QuantileSorted(finite, 0.95);
  }
  if (!samples.empty()) out.histogram = Histogram::FromSamples(samples, bins);
  if (keep_samples) out.samples = samples;
  return out;
}

/// Deterministic generator (no draw-site salt: test data only).
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  /// Uniform in [0, 1).
  double Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state_ >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

struct Case {
  std::string name;
  pdb::ValueType type = pdb::ValueType::kDouble;
  std::vector<double> values;
};

/// Large enough for several cells, the pool and the bucketed selection.
constexpr std::size_t kLarge = 150000;

std::vector<Case> GeneratedCases() {
  std::vector<Case> cases;
  cases.push_back({"empty", pdb::ValueType::kDouble, {}});
  cases.push_back({"one_value", pdb::ValueType::kDouble, {-2.5}});
  cases.push_back(
      {"all_non_finite", pdb::ValueType::kDouble, {kNaN, kInf, -kInf, kNaN}});
  {
    Case c{"non_finite_mixed", pdb::ValueType::kDouble, {}};
    Lcg rng(1);
    for (std::size_t i = 0; i < kLarge; ++i) {
      const double u = rng.Next();
      c.values.push_back(i % 97 == 0   ? kNaN
                         : i % 89 == 0 ? kInf
                         : i % 83 == 0 ? -kInf
                                       : 100.0 * u - 30.0);
    }
    cases.push_back(std::move(c));
  }
  {
    // Both zeros at the selected ranks, in a bucketed column: p50 sits
    // among the -0.0s, so totalOrder decides the sign.
    Case c{"signed_zeros", pdb::ValueType::kDouble, {}};
    Lcg rng(2);
    for (std::size_t i = 0; i < kLarge; ++i) {
      const double u = rng.Next();
      c.values.push_back(u < 0.3 ? -0.0 : u < 0.6 ? 0.0 : u * 10.0 - 7.0);
    }
    cases.push_back(std::move(c));
  }
  {
    // Both zeros at the minimum: the histogram's lo keeps the first one
    // (+0.0 here) in world order, even when a later slice's -0.0 ties it.
    Case c{"signed_zero_min", pdb::ValueType::kDouble, {}};
    Lcg rng(8);
    for (std::size_t i = 0; i < kLarge; ++i) {
      const double u = rng.Next();
      c.values.push_back(u < 0.2 ? (i < kLarge / 2 ? 0.0 : -0.0) : u * 5.0);
    }
    cases.push_back(std::move(c));
  }
  {
    // The median's rank is the first value of a bucket: 20000 zeros, then
    // ones (shuffled), so p50 picks from the second bucket.
    Case c{"rank_at_bucket_edge", pdb::ValueType::kDouble, {}};
    Lcg rng(9);
    std::size_t zeros = 20000, ones = 20001;
    while (zeros + ones > 0) {
      const bool zero = rng.Next() * static_cast<double>(zeros + ones) <
                        static_cast<double>(zeros);
      c.values.push_back(zero ? 0.0 : 1.0);
      --(zero ? zeros : ones);
    }
    cases.push_back(std::move(c));
  }
  cases.push_back({"constant", pdb::ValueType::kDouble,
                   std::vector<double>(kLarge, 3.25)});
  {
    Case c{"bool_90_10", pdb::ValueType::kBool, {}};
    Lcg rng(3);
    for (std::size_t i = 0; i < kLarge; ++i) {
      c.values.push_back(rng.Next() < 0.9 ? 0.0 : 1.0);
    }
    cases.push_back(std::move(c));
  }
  {
    Case c{"ints", pdb::ValueType::kInt, {}};
    Lcg rng(4);
    for (std::size_t i = 0; i < kLarge; ++i) {
      c.values.push_back(std::floor(rng.Next() * 200000.0) - 50000.0);
    }
    cases.push_back(std::move(c));
  }
  {
    Case c{"heavy_duplicates", pdb::ValueType::kDouble, {}};
    Lcg rng(5);
    for (std::size_t i = 0; i < kLarge; ++i) {
      c.values.push_back(std::floor(rng.Next() * 16.0) / 4.0);
    }
    cases.push_back(std::move(c));
  }
  {
    // Most of the mass in one narrow, non-constant cluster far from the
    // tails: the selection must refine that bucket, not gather it.
    Case c{"dominant_cluster", pdb::ValueType::kDouble, {}};
    Lcg rng(6);
    for (std::size_t i = 0; i < kLarge; ++i) {
      const double u = rng.Next();
      c.values.push_back(i % 10 == 0 ? 1e6 * u - 5e5 : 1.0 + u * 1e-9);
    }
    cases.push_back(std::move(c));
  }
  {
    Case c{"crossing_zero", pdb::ValueType::kDouble, {}};
    Lcg rng(7);
    for (std::size_t i = 0; i < kLarge; ++i) {
      const double u = rng.Next() + rng.Next() + rng.Next() - 1.5;
      c.values.push_back(u * u * u);
    }
    cases.push_back(std::move(c));
  }
  {
    // A bucket edge falls between -0.0 and +0.0 (the column's key range
    // starts 2^62 below +0.0's key), and the ranks land in the bucket of
    // +0.0 and positive subnormals: its refinement starts at +0.0 while
    // the -0.0s still pass the floating-point range test.
    Case c{"refine_from_plus_zero", pdb::ValueType::kDouble, {}};
    Lcg rng(10);
    // Just above -2.0: OrderKey is exactly 2^62.
    const double low = -std::bit_cast<double>(0x3FFF'FFFF'FFFF'FFFFULL);
    for (std::size_t i = 0; i < kLarge; ++i) {
      const double u = rng.Next();
      c.values.push_back(
          u < 0.1   ? low
          : u < 0.2 ? -0.0
          : u < 0.3 ? 0.0
                    : std::bit_cast<double>(std::uint64_t{1} + i % 60000));
    }
    cases.push_back(std::move(c));
  }
  {
    // The mirror: the ranks land among negative subnormals and -0.0, so
    // every refinement ends at -0.0 while the +0.0s pass the range test.
    Case c{"refine_to_minus_zero", pdb::ValueType::kDouble, {}};
    Lcg rng(11);
    for (std::size_t i = 0; i < kLarge; ++i) {
      const double u = rng.Next();
      c.values.push_back(
          i == 0    ? -std::bit_cast<double>((std::uint64_t{1} << 53) - 1)
          : u < 0.1 ? 2.0
          : u < 0.2 ? 0.0
          : u < 0.3 ? -0.0
                    : -std::bit_cast<double>(std::uint64_t{1} + i % 60000));
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

/// Cuts `values` into world-ordered spans: `width` values per span, or
/// (width 0) a run of 1-value spans, a long span and a few empty ones.
ColumnSpans Layout(const std::vector<double>& values, std::size_t width) {
  const std::span<const double> all(values);
  ColumnSpans spans;
  if (width == 0) {
    std::size_t at = 0;
    for (; at < all.size() && at < 300; ++at) {
      spans.push_back(all.subspan(at, 1));
      if (at % 50 == 0) spans.push_back(all.subspan(at, 0));
    }
    spans.push_back(all.subspan(at));
    spans.push_back(all.subspan(all.size(), 0));
    return spans;
  }
  for (std::size_t at = 0; at < all.size(); at += width) {
    spans.push_back(all.subspan(at, std::min(width, all.size() - at)));
  }
  return spans;
}

constexpr std::size_t kLayoutWidths[] = {kLarge, 1, 7, 64, 0};

TEST(ColumnSummaryTest, MatchesSortReferenceOnGeneratedInputs) {
  ThreadPool pool2(2), pool8(8);
  ThreadPool* pools[] = {nullptr, &pool2, &pool8};
  for (const Case& c : GeneratedCases()) {
    SCOPED_TRACE(c.name);
    const std::vector<double> before = c.values;
    // Samples are compared on one layout only, to keep the suite quick
    // under the sanitizers.
    const OutputMetrics with_samples = Reference(c.values, true, 20);
    OutputMetrics expected = with_samples;
    expected.samples.clear();
    SummaryStats first_stats;
    bool have_stats = false;
    for (std::size_t width : kLayoutWidths) {
      const std::vector<ColumnSpans> columns = {Layout(c.values, width)};
      for (ThreadPool* pool : pools) {
        SCOPED_TRACE(::testing::Message()
                     << "width=" << width << " threads="
                     << (pool ? pool->num_threads() : 1));
        SummaryStats stats;
        const bool keep = width == 0;
        const auto got = SummarizeColumns(columns, keep, 20, pool, &stats);
        ASSERT_EQ(got.size(), 1u);
        test::ExpectMetricsBitIdentical(got[0], keep ? with_samples : expected);
        // The counters depend only on the samples.
        if (!have_stats) {
          first_stats = stats;
          have_stats = true;
        }
        EXPECT_EQ(stats.count_passes, first_stats.count_passes);
        EXPECT_EQ(stats.values_gathered, first_stats.values_gathered);
      }
    }
    // Selection ran in private scratch: the inputs are untouched.
    ASSERT_EQ(c.values.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      ASSERT_EQ(Bits(c.values[i]), Bits(before[i])) << i;
    }
  }
}

TEST(ColumnSummaryTest, ManyColumnsAtOnceMatchOneAtATime) {
  const std::vector<Case> cases = GeneratedCases();
  std::vector<ColumnSpans> columns;
  for (const Case& c : cases) columns.push_back(Layout(c.values, 7));
  ThreadPool pool(8);
  const auto together = SummarizeColumns(columns, false, 12, &pool);
  ASSERT_EQ(together.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    test::ExpectMetricsBitIdentical(
        together[i], SummarizeColumn(columns[i], false, 12));
  }
}

TEST(ColumnSummaryTest, SelectMatchesSortBitForBit) {
  // Exact equality with the sort-based path: odd/even sizes, heavy
  // duplicates, quantiles at and between rank boundaries.
  Lcg rng(0x9e3779b97f4a7c15ULL);
  for (std::size_t n : {1u, 2u, 3u, 17u, 100u, 101u, 1000u}) {
    std::vector<double> values;
    for (std::size_t i = 0; i < n; ++i) {
      values.push_back(std::floor(rng.Next() * 16.0) / 4.0);
    }
    const std::span<const double> all(values);
    const OutputMetrics got = SummarizeColumn({&all, 1}, false, 20);
    EXPECT_EQ(Bits(got.p50), Bits(Quantile(values, 0.50))) << "n=" << n;
    EXPECT_EQ(Bits(got.p95), Bits(Quantile(values, 0.95))) << "n=" << n;
    EXPECT_EQ(Bits(got.p05), Bits(Quantile(values, 0.05))) << "n=" << n;
  }
}

TEST(ColumnSummaryTest, SignedZerosFollowTotalOrder) {
  // Four -0.0 and one +0.0 in every position: ranks 2 and 3 (p50) are
  // both -0.0 under totalOrder, and p95 interpolates -0.0 with +0.0.
  for (std::size_t plus = 0; plus < 5; ++plus) {
    std::vector<double> values(5, -0.0);
    values[plus] = 0.0;
    const std::span<const double> all(values);
    const OutputMetrics got = SummarizeColumn({&all, 1}, false, 20);
    EXPECT_EQ(Bits(got.p50), Bits(-0.0)) << "+0.0 at " << plus;
    EXPECT_EQ(Bits(got.p95), Bits(0.0)) << "+0.0 at " << plus;
  }
  // The same rule on the bucketed, pooled path.
  std::vector<double> values;
  for (std::size_t i = 0; i < kLarge; ++i) {
    values.push_back(i % 5 < 3 ? -0.0 : 0.0);
  }
  const std::vector<ColumnSpans> columns = {Layout(values, 64)};
  ThreadPool pool(8);
  const auto got = SummarizeColumns(columns, false, 20, &pool);
  EXPECT_EQ(Bits(got[0].p50), Bits(-0.0));
  EXPECT_EQ(Bits(got[0].p95), Bits(0.0));
}

TEST(ColumnSummaryTest, SingleValuedBucketsAnswerWithoutGather) {
  for (const Case& c : GeneratedCases()) {
    if (c.name != "constant" && c.name != "bool_90_10") continue;
    SCOPED_TRACE(c.name);
    const std::vector<ColumnSpans> columns = {Layout(c.values, 64)};
    SummaryStats stats;
    SummarizeColumns(columns, false, 20, nullptr, &stats);
    EXPECT_EQ(stats.count_passes, 1u);
    EXPECT_EQ(stats.values_gathered, 0u);
  }
}

TEST(ColumnSummaryTest, DominantBucketRefinesInsteadOfGathering) {
  for (const Case& c : GeneratedCases()) {
    if (c.name != "dominant_cluster") continue;
    const std::vector<ColumnSpans> columns = {Layout(c.values, 64)};
    SummaryStats stats;
    SummarizeColumns(columns, false, 20, nullptr, &stats);
    EXPECT_GE(stats.count_passes, 2u);
    EXPECT_LT(stats.values_gathered, c.values.size() / 8);
  }
}

// ---------------------------------------------------------------------------
// Through the folds: FoldVGColumns over a table that replays a case's
// values world by world, on every batch x threads x storage point.
// ---------------------------------------------------------------------------

using FillFn = std::function<Status(std::size_t world, pdb::Table* out)>;

class ReplayVGTable final : public pdb::VGTableFunction {
 public:
  ReplayVGTable(pdb::Schema schema, FillFn fill)
      : schema_(std::move(schema)), fill_(std::move(fill)) {}

  const std::string& name() const override { return name_; }
  const pdb::Schema& schema() const override { return schema_; }
  Result<pdb::Table> Generate(std::size_t world,
                              const SeedVector& /*seeds*/) const override {
    pdb::Table t(schema_);
    JIGSAW_RETURN_IF_ERROR(fill_(world, &t));
    return t;
  }

 private:
  std::string name_ = "replay";
  pdb::Schema schema_;
  FillFn fill_;
};

pdb::Value Boxed(pdb::ValueType type, double v) {
  switch (type) {
    case pdb::ValueType::kInt:
      return pdb::Value(static_cast<std::int64_t>(v));
    case pdb::ValueType::kBool:
      return pdb::Value(v != 0.0);
    default:
      return pdb::Value(v);
  }
}

constexpr std::size_t kWorlds = 40;

/// World w's rows: ragged — empty worlds, 1-row worlds and one long one.
std::vector<std::size_t> WorldStarts(std::size_t n) {
  std::vector<std::size_t> starts;
  std::size_t at = 0;
  for (std::size_t w = 0; w < kWorlds; ++w) {
    starts.push_back(at);
    const std::size_t rows = w % 6 == 5 ? 0
                             : w < 20   ? 1
                             : w == 27  ? n / 2
                                        : n / 40;
    at = std::min(n, at + rows);
  }
  starts.push_back(n);
  return starts;
}

TEST(ColumnSummaryFoldTest, ColumnarAndBoxedMatchReferenceOnGrid) {
  for (const Case& c : GeneratedCases()) {
    if (c.name == "crossing_zero" || c.name == "heavy_duplicates") continue;
    SCOPED_TRACE(c.name);
    // A smaller replay keeps the boxed twin quick; still above the
    // pool and direct-selection thresholds.
    const std::vector<double> values(
        c.values.begin(),
        c.values.begin() + std::min<std::size_t>(c.values.size(), 40000));
    const std::vector<std::size_t> starts = WorldStarts(values.size());
    auto table = std::make_shared<ReplayVGTable>(
        pdb::Schema({{"x", c.type}}),
        [&](std::size_t w, pdb::Table* out) -> Status {
          for (std::size_t i = starts[w]; i < starts[w + 1]; ++i) {
            pdb::Row row;
            row.push_back(Boxed(c.type, values[i]));
            JIGSAW_RETURN_IF_ERROR(out->AddRow(std::move(row)));
          }
          return Status::OK();
        });
    const OutputMetrics with_samples = Reference(values, true, 20);
    OutputMetrics expected = with_samples;
    expected.samples.clear();
    const std::vector<std::string> names = {"x"};
    const SeedVector seeds(7, kWorlds);
    test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
      for (bool columnar : {true, false}) {
        SCOPED_TRACE(columnar ? "columnar" : "boxed");
        RunConfig cfg;
        cfg.num_threads = threads;
        cfg.batch_size = batch;
        cfg.columnar_storage = columnar;
        cfg.keep_samples = batch == 7;  // one chunking checks the samples
        std::unique_ptr<ThreadPool> pool;
        if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
        auto got = pdb::FoldVGColumns(*table, names, kWorlds, seeds, cfg,
                                      pool.get());
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        test::ExpectMetricsBitIdentical(
            got.value().at("x"), cfg.keep_samples ? with_samples : expected);
      }
    });
  }
}

TEST(ColumnSummaryFoldTest, NullErrorsSurfaceWorldMajor) {
  // Column b turns NULL in world 3, column a in world 5 (and both in
  // world 9): the world-major first (world, column) error is b's, on
  // every path. Within one world, the requested column order decides.
  const pdb::Schema schema(
      {{"a", pdb::ValueType::kDouble}, {"b", pdb::ValueType::kInt}});
  auto table = std::make_shared<ReplayVGTable>(
      schema, [](std::size_t w, pdb::Table* out) -> Status {
        for (std::size_t i = 0; i < 3; ++i) {
          const bool a_null = (w == 5 || w == 9) && i == 2;
          const bool b_null = (w == 3 || w == 9) && i == 1;
          pdb::Row row;
          row.push_back(a_null ? pdb::Value::Null()
                               : pdb::Value(static_cast<double>(w) + 0.5));
          row.push_back(b_null ? pdb::Value::Null()
                               : pdb::Value(static_cast<std::int64_t>(i)));
          JIGSAW_RETURN_IF_ERROR(out->AddRow(std::move(row)));
        }
        return Status::OK();
      });
  const SeedVector seeds(7, 16);
  struct Expectation {
    std::vector<std::string> names;
    std::size_t worlds;
    std::string error;
  };
  const Expectation expectations[] = {
      {{"a", "b"}, 16, "column 'b' is not numeric"},
      {{"b", "a"}, 16, "column 'b' is not numeric"},
      {{"a"}, 16, "column 'a' is not numeric"},
      {{"a", "b"}, 5, "column 'b' is not numeric"},
  };
  for (const Expectation& e : expectations) {
    SCOPED_TRACE(::testing::Message() << e.names[0] << " first, "
                                      << e.worlds << " worlds");
    test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
      for (bool columnar : {true, false}) {
        for (bool cached : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << (columnar ? "columnar" : "boxed")
                       << (cached ? " cached" : ""));
          RunConfig cfg;
          cfg.num_threads = threads;
          cfg.batch_size = batch;
          cfg.columnar_storage = columnar;
          std::unique_ptr<ThreadPool> pool;
          if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
          pdb::WorldCache cache;
          auto got = pdb::FoldVGColumns(*table, e.names, e.worlds, seeds,
                                        cfg, pool.get(),
                                        cached ? &cache : nullptr);
          ASSERT_FALSE(got.ok());
          EXPECT_EQ(got.status().code(), StatusCode::kExecutionError);
          EXPECT_EQ(got.status().message(), e.error);
        }
      }
    });
  }
}

}  // namespace
}  // namespace jigsaw
