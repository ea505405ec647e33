#pragma once

/// \file column_summary.h
/// The finalize layer of the Estimator (Figure 3): turns each output
/// column's Monte Carlo samples into its OutputMetrics — moments, min/max,
/// p05/p50/p95 and histogram — reading the samples in place. A column
/// arrives as a world-ordered list of read-only spans over buffers its
/// producer already holds (columnar chunks, cached world tables, staged cells); the
/// kernel never writes to them and keeps no copy of them unless samples
/// are requested.
///
/// With a pool, the work runs as (column x slice) cells, and every merge
/// is exact, so the result is bit-identical for any pool, span layout or
/// slicing:
///   * Welford moments are order-dependent, so each column keeps one
///     serial fold in world order (one pool task per column);
///   * finite min/max (the histogram range) merge in world order keeping
///     the first of equal values, as a serial scan would;
///   * histogram bin counts are integers and add exactly
///     (Histogram::Merge);
///   * p05/p50/p95 come from a count-then-refine selection: a count pass
///     per slice buckets the finite values by IEEE totalOrder key, and the
///     bucket holding each needed rank is either single-valued (answered
///     without a gather), small enough to gather into private scratch for
///     nth_element, or re-bucketed over its own key range. p05 is there
///     for reuse: a reflecting mapping turns it into the mapped p95.
///
/// Order statistics follow IEEE totalOrder, so when -0.0 and +0.0 both
/// sit at a selected rank, -0.0 ranks below +0.0.

#include <cstddef>
#include <span>
#include <vector>

#include "core/metrics.h"
#include "util/thread_pool.h"

namespace jigsaw {

/// One column's samples: read-only spans whose concatenation, in order,
/// is the column in world order.
using ColumnSpans = std::vector<std::span<const double>>;

/// Deterministic work counters of a summary: they depend only on the
/// samples, never on the pool or the span layout.
struct SummaryStats {
  /// Bucket-count passes over a column, refinement passes included.
  std::size_t count_passes = 0;
  /// Finite values copied into selection scratch.
  std::size_t values_gathered = 0;
};

/// Summarizes every column. With a non-null `pool`, columns large enough
/// to amortize a task run on the pool; the result is bit-identical to the
/// serial run. Must not be called from inside a task of `pool`.
std::vector<OutputMetrics> SummarizeColumns(
    std::span<const ColumnSpans> columns, bool keep_samples, int histogram_bins,
    ThreadPool* pool = nullptr, SummaryStats* stats = nullptr);

/// Serial summary of one column.
OutputMetrics SummarizeColumn(std::span<const std::span<const double>> spans,
                              bool keep_samples, int histogram_bins);

}  // namespace jigsaw
