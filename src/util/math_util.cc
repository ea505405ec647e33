#include "util/math_util.h"

#include <algorithm>

#include "util/logging.h"

namespace jigsaw {

void WelfordAccumulator::Merge(const WelfordAccumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  JIGSAW_CHECK_MSG(!sorted.empty(), "quantile of empty vector");
  JIGSAW_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q out of range: " << q);
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, q);
}

}  // namespace jigsaw
