#pragma once

/// \file grid_test_util.h
/// The acceptance grid every parallel/batched surface is verified on:
/// batch sizes {1, 7, 64} x thread counts {1, 2, 8}. The suites that
/// claim "bit-identical at every (num_threads, batch_size) combination"
/// (pdb_test, sql_test, batched_sampling_test) all walk this one grid so
/// a new surface cannot quietly test a narrower one. The same suites
/// compare their results with the one bitwise metrics comparator below.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "core/metrics.h"

namespace jigsaw::test {

/// Batch sizes covering the degenerate (1), straddling-remainder (7) and
/// default (64) chunkings.
inline constexpr std::array<std::size_t, 3> kGridBatchSizes = {1u, 7u, 64u};

/// Thread counts covering serial (1), minimal contention (2) and
/// oversubscription (8; the dev container may have fewer cores).
inline constexpr std::array<std::size_t, 3> kGridThreadCounts = {1u, 2u, 8u};

/// Parallel-only thread counts, for tests whose reference IS the
/// single-threaded run.
inline constexpr std::array<std::size_t, 2> kGridParallelThreadCounts = {2u,
                                                                        8u};

inline const std::array<std::size_t, 3>& GridBatchSizes() {
  return kGridBatchSizes;
}
inline const std::array<std::size_t, 3>& GridThreadCounts() {
  return kGridThreadCounts;
}
inline const std::array<std::size_t, 2>& GridParallelThreadCounts() {
  return kGridParallelThreadCounts;
}

/// Invokes fn(threads, batch) at every grid point, each call wrapped in a
/// SCOPED_TRACE naming the coordinates.
template <typename Fn>
void ForEachGridPoint(Fn&& fn) {
  for (std::size_t threads : GridThreadCounts()) {
    for (std::size_t batch : GridBatchSizes()) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " batch=" << batch);
      fn(threads, batch);
    }
  }
}

/// Grid walk without threads=1, for suites that diff against the serial
/// run itself.
template <typename Fn>
void ForEachParallelGridPoint(Fn&& fn) {
  for (std::size_t threads : GridParallelThreadCounts()) {
    for (std::size_t batch : GridBatchSizes()) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " batch=" << batch);
      fn(threads, batch);
    }
  }
}

/// Batch-axis walk at a fixed thread count (the chain runner and other
/// serial-only surfaces still verify every chunking).
template <typename Fn>
void ForEachGridBatch(Fn&& fn) {
  for (std::size_t batch : GridBatchSizes()) {
    SCOPED_TRACE(::testing::Message() << "batch=" << batch);
    fn(batch);
  }
}

/// Session counts for the serving-layer grid: single tenant (1), modest
/// concurrency (4), and far more sessions than the widest pool (16 —
/// saturation, every session contending for the same workers).
inline constexpr std::array<std::size_t, 3> kGridSessionCounts = {1u, 4u,
                                                                  16u};

inline const std::array<std::size_t, 3>& GridSessionCounts() {
  return kGridSessionCounts;
}

/// Invokes fn(sessions, threads) at every (session count x pool width)
/// point — the acceptance grid of serve_test: every concurrency shape a
/// deployment can take, from one serial tenant to 16 sessions fighting
/// over 2 workers.
template <typename Fn>
void ForEachSessionGridPoint(Fn&& fn) {
  for (std::size_t sessions : GridSessionCounts()) {
    for (std::size_t threads : GridThreadCounts()) {
      SCOPED_TRACE(::testing::Message()
                   << "sessions=" << sessions << " threads=" << threads);
      fn(sessions, threads);
    }
  }
}

/// Expects two summaries to be bit-identical: every scalar by bit
/// pattern (so a +-0.0 or NaN difference cannot hide behind ==), the
/// histogram's range, bin counts and tallies, and the retained samples.
inline void ExpectMetricsBitIdentical(const OutputMetrics& a,
                                      const OutputMetrics& b) {
  auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(bits(a.mean), bits(b.mean)) << a.mean << " vs " << b.mean;
  EXPECT_EQ(bits(a.stddev), bits(b.stddev)) << a.stddev << " vs " << b.stddev;
  EXPECT_EQ(bits(a.std_error), bits(b.std_error))
      << a.std_error << " vs " << b.std_error;
  EXPECT_EQ(bits(a.min), bits(b.min)) << a.min << " vs " << b.min;
  EXPECT_EQ(bits(a.max), bits(b.max)) << a.max << " vs " << b.max;
  EXPECT_EQ(bits(a.p50), bits(b.p50)) << a.p50 << " vs " << b.p50;
  EXPECT_EQ(bits(a.p95), bits(b.p95)) << a.p95 << " vs " << b.p95;
  EXPECT_EQ(bits(a.p05), bits(b.p05)) << a.p05 << " vs " << b.p05;
  ASSERT_EQ(a.histogram.has_value(), b.histogram.has_value());
  if (a.histogram) {
    const Histogram& ha = *a.histogram;
    const Histogram& hb = *b.histogram;
    EXPECT_EQ(bits(ha.lo()), bits(hb.lo())) << ha.lo() << " vs " << hb.lo();
    EXPECT_EQ(bits(ha.hi()), bits(hb.hi())) << ha.hi() << " vs " << hb.hi();
    EXPECT_EQ(ha.dropped_count(), hb.dropped_count());
    ASSERT_EQ(ha.num_bins(), hb.num_bins());
    for (int i = 0; i < ha.num_bins(); ++i) {
      EXPECT_EQ(ha.bin_count(i), hb.bin_count(i)) << "bin " << i;
    }
  }
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    ASSERT_EQ(bits(a.samples[i]), bits(b.samples[i])) << "sample " << i;
  }
}

/// Column-map form: the same column names, each column bit-identical.
inline void ExpectMetricsBitIdentical(
    const std::map<std::string, OutputMetrics>& a,
    const std::map<std::string, OutputMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [name, metrics] : a) {
    SCOPED_TRACE("column " + name);
    const auto it = b.find(name);
    ASSERT_NE(it, b.end());
    ExpectMetricsBitIdentical(metrics, it->second);
  }
}

}  // namespace jigsaw::test
