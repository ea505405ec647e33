#include "core/metrics.h"

#include <algorithm>
#include <cmath>

#include "core/column_summary.h"
#include "util/string_util.h"

namespace jigsaw {

const char* MetricSelectorName(MetricSelector m) {
  switch (m) {
    case MetricSelector::kExpect:
      return "EXPECT";
    case MetricSelector::kStdDev:
      return "EXPECT_STDDEV";
    case MetricSelector::kStdError:
      return "STDERR";
    case MetricSelector::kMin:
      return "MIN";
    case MetricSelector::kMax:
      return "MAX";
    case MetricSelector::kMedian:
      return "MEDIAN";
    case MetricSelector::kP95:
      return "P95";
  }
  return "?";
}

double ExtractMetric(const OutputMetrics& metrics, MetricSelector selector) {
  switch (selector) {
    case MetricSelector::kExpect:
      return metrics.mean;
    case MetricSelector::kStdDev:
      return metrics.stddev;
    case MetricSelector::kStdError:
      return metrics.std_error;
    case MetricSelector::kMin:
      return metrics.min;
    case MetricSelector::kMax:
      return metrics.max;
    case MetricSelector::kMedian:
      return metrics.p50;
    case MetricSelector::kP95:
      return metrics.p95;
  }
  return 0.0;
}

namespace {

/// Quantile `q` of the mapped distribution, given q and its reflected
/// rank (1 - q) of the original: a reflection turns the lower tail into
/// the upper one.
double MappedRank(double q, double reflected, double alpha, double beta) {
  return alpha * (alpha < 0 ? reflected : q) + beta;
}

}  // namespace

double AffineMappedMetric(const OutputMetrics& metrics,
                          MetricSelector selector, double alpha,
                          double beta) {
  switch (selector) {
    case MetricSelector::kExpect:
      return alpha * metrics.mean + beta;
    case MetricSelector::kStdDev:
      return std::fabs(alpha) * metrics.stddev;
    case MetricSelector::kStdError:
      return std::fabs(alpha) * metrics.std_error;
    case MetricSelector::kMin:
      return std::min(alpha * metrics.min + beta, alpha * metrics.max + beta);
    case MetricSelector::kMax:
      return std::max(alpha * metrics.min + beta, alpha * metrics.max + beta);
    case MetricSelector::kMedian:
      return alpha * metrics.p50 + beta;
    case MetricSelector::kP95:
      return MappedRank(metrics.p95, metrics.p05, alpha, beta);
  }
  return 0.0;
}

bool CanMapMetrics(const MappingFunction& m, bool has_samples) {
  return m.AsAffine().has_value() || (m.Invertible() && has_samples);
}

OutputMetrics OutputMetrics::AffineMapped(double alpha, double beta) const {
  auto field = [&](MetricSelector s) {
    return AffineMappedMetric(*this, s, alpha, beta);
  };
  OutputMetrics out;
  out.count = count;
  out.mean = field(MetricSelector::kExpect);
  out.stddev = field(MetricSelector::kStdDev);
  out.std_error = field(MetricSelector::kStdError);
  out.min = field(MetricSelector::kMin);
  out.max = field(MetricSelector::kMax);
  out.p50 = field(MetricSelector::kMedian);
  out.p95 = field(MetricSelector::kP95);
  out.p05 = MappedRank(p05, p95, alpha, beta);
  if (histogram) {
    out.histogram = histogram->AffineTransformed(alpha, beta);
  }
  if (!samples.empty()) {
    out.samples.reserve(samples.size());
    for (double s : samples) out.samples.push_back(alpha * s + beta);
  }
  return out;
}

std::optional<OutputMetrics> OutputMetrics::MappedBy(
    const MappingFunction& m, int histogram_bins) const {
  if (!CanMapMetrics(m, !samples.empty())) return std::nullopt;
  if (auto affine = m.AsAffine()) {
    return AffineMapped(affine->first, affine->second);
  }
  std::vector<double> mapped;
  mapped.reserve(samples.size());
  for (double s : samples) mapped.push_back(m.Apply(s));
  return MetricsFromSamples(mapped, /*keep_samples=*/true, histogram_bins);
}

std::string OutputMetrics::ToString() const {
  return StrFormat(
      "{n=%lld mean=%.6g sd=%.6g se=%.3g min=%.6g max=%.6g p50=%.6g "
      "p95=%.6g}",
      static_cast<long long>(count), mean, stddev, std_error, min, max, p50,
      p95);
}

OutputMetrics Estimator::Finalize() const {
  const std::span<const double> all(all_);
  return SummarizeColumn({&all, 1}, keep_samples_, histogram_bins_);
}

OutputMetrics MetricsFromSamples(const std::vector<double>& samples,
                                 bool keep_samples, int histogram_bins) {
  const std::span<const double> all(samples);
  return SummarizeColumn({&all, 1}, keep_samples, histogram_bins);
}

}  // namespace jigsaw
