#include "core/column_summary.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>

#include "util/histogram.h"
#include "util/math_util.h"

namespace jigsaw {

namespace {

/// Samples per cell — one task's slice of a column.
constexpr std::size_t kCellSize = std::size_t{1} << 16;
/// The pool is used only when some column has at least this many
/// samples; below it, task dispatch costs more than the work.
constexpr std::size_t kMinPoolSamples = std::size_t{1} << 14;
/// A column with at most this many finite values selects over all of
/// them at once (a single bucket), and a bucket at most this large is
/// gathered rather than refined.
constexpr std::size_t kGatherMax = std::size_t{1} << 15;
constexpr int kBucketBits = 10;

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Unsigned key whose integer order is IEEE totalOrder on doubles (so
/// -0.0 sorts below +0.0). Equal keys mean equal bits.
std::uint64_t OrderKey(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

double FromOrderKey(std::uint64_t key) {
  return std::bit_cast<double>((key & kSignBit) != 0 ? key & ~kSignBit
                                                      : ~key);
}

/// Runs fn(i) for i in [0, count) — on the pool when there is one,
/// indices handed out in order so long tasks listed first start first.
void RunTasks(ThreadPool* pool, std::size_t count,
              const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  pool->ParallelFor(count, fn);
}

/// A column's spans with the offset of each in their concatenation.
struct Column {
  std::span<const std::span<const double>> spans;
  std::vector<std::size_t> starts;  ///< starts.back() is the column size

  explicit Column(std::span<const std::span<const double>> s) : spans(s) {
    starts.reserve(spans.size() + 1);
    std::size_t n = 0;
    for (const auto& span : spans) {
      starts.push_back(n);
      n += span.size();
    }
    starts.push_back(n);
  }

  std::size_t size() const { return starts.back(); }

  /// Calls fn on each piece of samples [begin, end), in order.
  template <typename Fn>
  void ForEach(std::size_t begin, std::size_t end, Fn&& fn) const {
    std::size_t i = static_cast<std::size_t>(
        std::upper_bound(starts.begin(), starts.end() - 1, begin) -
        starts.begin() - 1);
    for (; i < spans.size() && starts[i] < end; ++i) {
      const std::size_t lo = std::max(begin, starts[i]) - starts[i];
      const std::size_t hi = std::min(end, starts[i + 1]) - starts[i];
      if (hi > lo) fn(spans[i].subspan(lo, hi - lo));
    }
  }
};

/// One task's slice [begin, end) of a column.
struct Cell {
  std::size_t column;
  std::size_t begin;
  std::size_t end;
};

/// The finite values of a slice: their count and their min/max, keeping
/// the first of equal values as a serial std::min/std::max scan does
/// (+-inf while there are none).
struct FiniteRange {
  std::size_t count = 0;
  double lo = kInf;
  double hi = -kInf;

  void Add(double x) {
    if (!std::isfinite(x)) return;
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    ++count;
  }

  /// Folds in the range of the slice that follows this one.
  void Merge(const FiniteRange& next) {
    lo = std::min(lo, next.lo);
    hi = std::max(hi, next.hi);
    count += next.count;
  }
};

/// A pending order-statistic search: resolve `ranks` (ascending ranks
/// among the column's finite values), all of which hold keys in
/// [klo, khi], with `below` finite values keyed under klo. Each count
/// pass buckets by key, which narrows the range by about 2^kBucketBits.
struct Selection {
  std::size_t column;
  std::uint64_t klo;
  std::uint64_t khi;
  std::size_t below;
  std::vector<std::size_t> ranks;
};

/// Per-bucket count and key range of the finite values in a selection's
/// key range. Integer sums and min/max, so merging is exact in any order.
struct Buckets {
  std::vector<std::size_t> count;
  std::vector<std::uint64_t> kmin;
  std::vector<std::uint64_t> kmax;

  explicit Buckets(std::size_t n)
      : count(n, 0), kmin(n, ~std::uint64_t{0}), kmax(n, 0) {}

  void Merge(const Buckets& other) {
    for (std::size_t i = 0; i < count.size(); ++i) {
      count[i] += other.count[i];
      kmin[i] = std::min(kmin[i], other.kmin[i]);
      kmax[i] = std::max(kmax[i], other.kmax[i]);
    }
  }
};

/// Counts a cell's values in `sel` per bucket. Buckets are monotone in
/// totalOrder (equal values share one), so each is a key interval.
Buckets CountCell(const Column& col, const Cell& cell, const Selection& sel) {
  const std::uint64_t klo = sel.klo;
  const std::uint64_t khi = sel.khi;
  const int shift = std::max(
      0, static_cast<int>(std::bit_width(khi - klo)) - kBucketBits);
  Buckets b(((khi - klo) >> shift) + 1);
  std::size_t* const count = b.count.data();
  std::uint64_t* const kmin = b.kmin.data();
  std::uint64_t* const kmax = b.kmax.data();
  // By key, one unsigned compare: k is in [klo, khi] iff k - klo <=
  // khi - klo. Selections hold finite keys only, so NaN and +-inf fall
  // outside.
  const std::uint64_t width = khi - klo;
  col.ForEach(cell.begin, cell.end, [&](std::span<const double> xs) {
    for (double x : xs) {
      const std::uint64_t k = OrderKey(x);
      if (k - klo > width) continue;
      const auto i = static_cast<std::size_t>((k - klo) >> shift);
      ++count[i];
      kmin[i] = std::min(kmin[i], k);
      kmax[i] = std::max(kmax[i], k);
    }
  });
  return b;
}

/// The two ranks QuantileSorted interpolates between for quantile q of n
/// sorted values, and the interpolation weight.
struct QuantileRanks {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

QuantileRanks RanksOf(std::size_t n, double q) {
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  return {lo, std::min(lo + 1, n - 1), pos - static_cast<double>(lo)};
}

/// The quantiles every summary carries: p05, p50 and p95.
constexpr double kQuantiles[] = {0.05, 0.50, 0.95};

/// The order-statistic keys resolved so far for one column, by rank.
using Picks = std::vector<std::pair<std::size_t, std::uint64_t>>;

/// Mirrors QuantileSorted term for term, so the bits match a sort.
double Interpolate(std::size_t n, double q, const Picks& picks) {
  auto at = [&](std::size_t rank) {
    for (const auto& [r, key] : picks) {
      if (r == rank) return FromOrderKey(key);
    }
    return 0.0;  // unreachable: every needed rank is picked
  };
  if (n == 1) return at(0);
  const QuantileRanks r = RanksOf(n, q);
  return at(r.lo) * (1.0 - r.frac) + at(r.hi) * r.frac;
}

/// Splits a counted selection by the bucket holding each of its ranks.
/// Single-valued buckets answer their ranks at once; the rest become
/// selections over the bucket's own key range, to gather when small
/// and to count again otherwise.
void Resolve(const Selection& sel, const Buckets& b, Picks* picks,
             std::vector<Selection>* gather, std::vector<Selection>* count) {
  std::size_t below = sel.below;
  std::size_t i = 0;
  std::optional<Selection> open;
  auto flush = [&] {
    if (!open) return;
    (b.count[i] <= kGatherMax ? gather : count)->push_back(std::move(*open));
    open.reset();
  };
  for (std::size_t rank : sel.ranks) {
    while (below + b.count[i] <= rank) {
      flush();
      below += b.count[i];
      ++i;
    }
    if (b.kmin[i] == b.kmax[i]) {
      picks->emplace_back(rank, b.kmin[i]);
      continue;
    }
    if (!open) open = Selection{sel.column, b.kmin[i], b.kmax[i], below, {}};
    open->ranks.push_back(rank);
  }
  flush();
}

/// Selects each rank of `sel` among its gathered keys, in private scratch.
void SelectGathered(const Selection& sel, std::vector<std::uint64_t>& keys,
                    Picks* picks) {
  auto from = keys.begin();
  for (std::size_t rank : sel.ranks) {
    const auto nth =
        keys.begin() + static_cast<std::ptrdiff_t>(rank - sel.below);
    std::nth_element(from, nth, keys.end());
    picks->emplace_back(rank, *nth);
    from = nth + 1;
  }
}

/// The serial, order-dependent part of a column: Welford moments in
/// world order and, when asked, the retained samples.
void FoldMoments(const Column& col, bool keep_samples, OutputMetrics* out) {
  WelfordAccumulator acc;
  for (const auto& span : col.spans) acc.AddSpan(span);
  out->count = acc.count();
  out->mean = acc.mean();
  out->stddev = acc.stddev();
  out->std_error = acc.standard_error();
  out->min = acc.count() ? acc.min() : 0.0;
  out->max = acc.count() ? acc.max() : 0.0;
  if (keep_samples) {
    out->samples.reserve(col.size());
    for (const auto& span : col.spans) {
      out->samples.insert(out->samples.end(), span.begin(), span.end());
    }
  }
}

}  // namespace

std::vector<OutputMetrics> SummarizeColumns(
    std::span<const ColumnSpans> columns, bool keep_samples, int histogram_bins,
    ThreadPool* pool, SummaryStats* stats) {
  const std::size_t num_columns = columns.size();
  std::vector<Column> cols;
  cols.reserve(num_columns);
  std::vector<Cell> cells;
  // cells[first_cell[c], first_cell[c + 1]) are column c's, in world order.
  std::vector<std::size_t> first_cell;
  std::size_t largest = 0;
  for (std::size_t c = 0; c < num_columns; ++c) {
    const Column& col = cols.emplace_back(columns[c]);
    largest = std::max(largest, col.size());
    first_cell.push_back(cells.size());
    for (std::size_t b = 0; b < col.size(); b += kCellSize) {
      cells.push_back({c, b, std::min(b + kCellSize, col.size())});
    }
  }
  first_cell.push_back(cells.size());
  ThreadPool* const workers = largest >= kMinPoolSamples ? pool : nullptr;
  SummaryStats tally;

  // Pass 1: the finite range of every cell, merged per column in world
  // order.
  std::vector<FiniteRange> cell_range(cells.size());
  RunTasks(workers, cells.size(), [&](std::size_t i) {
    FiniteRange r;
    cols[cells[i].column].ForEach(cells[i].begin, cells[i].end,
                                  [&](std::span<const double> xs) {
                                    for (double x : xs) r.Add(x);
                                  });
    cell_range[i] = r;
  });
  std::vector<FiniteRange> range(num_columns);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    range[cells[i].column].Merge(cell_range[i]);
  }

  // The ranks each column's quantiles need. Columns with few finite
  // values gather them all; the rest start with a count pass over their
  // whole range.
  std::vector<Selection> counting, gathering;
  std::vector<std::size_t> first_count(num_columns, num_columns);
  for (std::size_t c = 0; c < num_columns; ++c) {
    const FiniteRange& r = range[c];
    if (r.count == 0) continue;
    std::vector<std::size_t> ranks;
    for (double q : kQuantiles) {
      const QuantileRanks qr = RanksOf(r.count, q);
      ranks.push_back(qr.lo);
      ranks.push_back(qr.hi);
    }
    std::sort(ranks.begin(), ranks.end());
    ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
    // A zero bound may stand for either signed zero.
    Selection sel{c, OrderKey(r.lo == 0.0 ? -0.0 : r.lo),
                  OrderKey(r.hi == 0.0 ? 0.0 : r.hi), 0, std::move(ranks)};
    if (r.count <= kGatherMax) {
      gathering.push_back(std::move(sel));
      continue;
    }
    first_count[c] = counting.size();
    counting.push_back(std::move(sel));
  }

  // Pass 2: one Welford task per column, listed first so the longest
  // serial folds start first, then per cell its histogram bins and its
  // share of the column's first count pass.
  std::vector<OutputMetrics> out(num_columns);
  std::vector<std::optional<Histogram>> cell_hist(cells.size());
  std::vector<std::optional<Buckets>> cell_buckets(cells.size());
  RunTasks(workers, num_columns + cells.size(), [&](std::size_t t) {
    if (t < num_columns) {
      FoldMoments(cols[t], keep_samples, &out[t]);
      return;
    }
    const std::size_t i = t - num_columns;
    const Cell& cell = cells[i];
    // Histogram::FromSamples' range: the finite min/max, else [0, 1].
    const FiniteRange& r = range[cell.column];
    Histogram& h = cell_hist[i].emplace(r.count ? r.lo : 0.0,
                                        r.count ? r.hi : 1.0, histogram_bins);
    cols[cell.column].ForEach(cell.begin, cell.end,
                              [&](std::span<const double> xs) {
                                h.AddSpan(xs);
                              });
    if (first_count[cell.column] != num_columns) {
      cell_buckets[i] = CountCell(cols[cell.column], cell,
                                  counting[first_count[cell.column]]);
    }
  });
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::optional<Histogram>& h = out[cells[i].column].histogram;
    if (h) {
      h->Merge(*cell_hist[i]);
    } else {
      h = std::move(cell_hist[i]);
    }
  }
  cell_hist.clear();

  // Refinement: resolve each counted selection's buckets; a rank whose
  // bucket is still too large counts again over that bucket's key range.
  std::vector<Picks> picks(num_columns);
  bool counted = true;  // the first count pass ran in pass 2
  while (!counting.empty()) {
    std::vector<std::pair<std::size_t, std::size_t>> tasks;  // (sel, cell)
    for (std::size_t s = 0; s < counting.size(); ++s) {
      const std::size_t c = counting[s].column;
      for (std::size_t i = first_cell[c]; i < first_cell[c + 1]; ++i) {
        tasks.emplace_back(s, i);
      }
    }
    std::vector<std::optional<Buckets>> task_buckets(tasks.size());
    if (counted) {
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        task_buckets[t] = std::move(cell_buckets[tasks[t].second]);
      }
      cell_buckets.clear();
      counted = false;
    } else {
      RunTasks(workers, tasks.size(), [&](std::size_t t) {
        const auto [s, i] = tasks[t];
        task_buckets[t] =
            CountCell(cols[cells[i].column], cells[i], counting[s]);
      });
    }
    std::vector<std::optional<Buckets>> merged(counting.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      auto& m = merged[tasks[t].first];
      if (m) {
        m->Merge(*task_buckets[t]);
      } else {
        m = std::move(task_buckets[t]);
      }
    }
    tally.count_passes += counting.size();
    std::vector<Selection> next;
    for (std::size_t s = 0; s < counting.size(); ++s) {
      Resolve(counting[s], *merged[s], &picks[counting[s].column], &gathering,
              &next);
    }
    counting = std::move(next);
  }

  // Gather: one pass per (column, cell) collects the keys of every
  // selection left on that column into private scratch; selection then
  // runs there — the producers' buffers are never written.
  std::vector<std::vector<std::size_t>> gathers_of(num_columns);
  for (std::size_t s = 0; s < gathering.size(); ++s) {
    gathers_of[gathering[s].column].push_back(s);
  }
  std::vector<std::size_t> gather_cells;
  for (std::size_t c = 0; c < num_columns; ++c) {
    if (gathers_of[c].empty()) continue;
    for (std::size_t i = first_cell[c]; i < first_cell[c + 1]; ++i) {
      gather_cells.push_back(i);
    }
  }
  // gathered[t][j]: cell gather_cells[t]'s keys for its column's j-th
  // selection.
  std::vector<std::vector<std::vector<std::uint64_t>>> gathered(
      gather_cells.size());
  RunTasks(workers, gather_cells.size(), [&](std::size_t t) {
    const Cell& cell = cells[gather_cells[t]];
    const std::vector<std::size_t>& sels = gathers_of[cell.column];
    // Each selection's key range as (first key, width), tested with one
    // unsigned compare as in CountCell.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    for (std::size_t s : sels) {
      ranges.emplace_back(gathering[s].klo,
                          gathering[s].khi - gathering[s].klo);
    }
    auto& keys = gathered[t];
    keys.resize(sels.size());
    cols[cell.column].ForEach(
        cell.begin, cell.end, [&](std::span<const double> xs) {
          for (double x : xs) {
            const std::uint64_t k = OrderKey(x);
            for (std::size_t j = 0; j < ranges.size(); ++j) {
              if (k - ranges[j].first <= ranges[j].second) {
                keys[j].push_back(k);
              }
            }
          }
        });
  });
  std::vector<std::vector<std::uint64_t>> keys(gathering.size());
  for (std::size_t t = 0; t < gather_cells.size(); ++t) {
    const std::vector<std::size_t>& sels =
        gathers_of[cells[gather_cells[t]].column];
    for (std::size_t j = 0; j < sels.size(); ++j) {
      std::vector<std::uint64_t>& k = keys[sels[j]];
      if (k.empty()) {
        k = std::move(gathered[t][j]);
      } else {
        k.insert(k.end(), gathered[t][j].begin(), gathered[t][j].end());
      }
    }
  }
  gathered.clear();
  std::vector<Picks> gathered_picks(gathering.size());
  RunTasks(workers, gathering.size(), [&](std::size_t s) {
    SelectGathered(gathering[s], keys[s], &gathered_picks[s]);
  });
  for (std::size_t s = 0; s < gathering.size(); ++s) {
    tally.values_gathered += keys[s].size();
    Picks& p = picks[gathering[s].column];
    p.insert(p.end(), gathered_picks[s].begin(), gathered_picks[s].end());
  }

  for (std::size_t c = 0; c < num_columns; ++c) {
    if (range[c].count == 0) continue;
    out[c].p05 = Interpolate(range[c].count, kQuantiles[0], picks[c]);
    out[c].p50 = Interpolate(range[c].count, kQuantiles[1], picks[c]);
    out[c].p95 = Interpolate(range[c].count, kQuantiles[2], picks[c]);
  }
  if (stats != nullptr) *stats = tally;
  return out;
}

OutputMetrics SummarizeColumn(std::span<const std::span<const double>> spans,
                              bool keep_samples, int histogram_bins) {
  const ColumnSpans column(spans.begin(), spans.end());
  return std::move(SummarizeColumns({&column, 1}, keep_samples,
                                    histogram_bins)[0]);
}

}  // namespace jigsaw
