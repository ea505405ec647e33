#include "core/fingerprint.h"

#include "util/logging.h"
#include "util/math_util.h"
#include "util/string_util.h"

namespace jigsaw {

FingerprintAnchor Fingerprint::FirstTwoDistinct(double tol) const {
  if (values_.size() < 2) return std::nullopt;
  const double first = values_[0];
  for (std::size_t i = 1; i < values_.size(); ++i) {
    if (!ApproxEqual(values_[i], first, tol)) return std::make_pair(0UL, i);
  }
  return std::nullopt;
}

std::string Fingerprint::ToString() const {
  std::string out = "[";
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += DoubleToString(values_[i]);
  }
  out += "]";
  return out;
}

Fingerprint ComputeFingerprint(const SimFunction& fn,
                               std::span<const double> params,
                               const SeedVector& seeds, std::size_t m,
                               FingerprintMemo* memo) {
  Fingerprint fp;
  ComputeFingerprintInto(fn, params, seeds, m, memo, &fp);
  return fp;
}

void ComputeFingerprintInto(const SimFunction& fn,
                            std::span<const double> params,
                            const SeedVector& seeds, std::size_t m,
                            FingerprintMemo* memo, Fingerprint* out) {
  JIGSAW_CHECK_MSG(m <= seeds.size(),
                   "fingerprint size " << m << " exceeds seed vector size "
                                       << seeds.size());
  fn.SampleFingerprint(params, seeds, out->Refill(m), memo);
}

}  // namespace jigsaw
