#include "core/mapping.h"

#include <cmath>

#include "util/hash.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/string_util.h"

namespace jigsaw {

MappingPtr IdentityMapping::Make() {
  static const MappingPtr kInstance = std::make_shared<IdentityMapping>();
  return kInstance;
}

double LinearMapping::Invert(double y) const {
  JIGSAW_CHECK_MSG(alpha_ != 0.0, "constant mapping is not invertible");
  return (y - beta_) / alpha_;
}

std::string LinearMapping::ToString() const {
  return StrFormat("M(x) = %.9g*x + %.9g", alpha_, beta_);
}

const std::string& LinearMappingFinder::class_name() const {
  static const std::string kName = "linear";
  return kName;
}

namespace {

/// Algorithm 2 with theta1's and theta2's FirstTwoDistinct(tol) given.
MappingPtr FindLinearMappingAnchored(const Fingerprint& theta1,
                                     const FingerprintAnchor& distinct,
                                     const Fingerprint& theta2,
                                     const FingerprintAnchor& theta2_distinct,
                                     double tol) {
  if (theta1.size() != theta2.size() || theta1.empty()) return nullptr;

  if (!distinct) {
    // theta1 is constant: a function can only map one input value to one
    // output value, so theta2 must be constant too. Use the translation
    // M(x) = x + (theta2[0] - theta1[0]).
    if (theta2_distinct) return nullptr;
    return std::make_shared<LinearMapping>(1.0, theta2[0] - theta1[0]);
  }

  const auto [i0, i1] = *distinct;
  const double alpha =
      (theta2[i1] - theta2[i0]) / (theta1[i1] - theta1[i0]);
  const double beta = theta2[i0] - alpha * theta1[i0];

  // Validate the remaining entries (Algorithm 2, lines 3-6), with a
  // relative tolerance in place of the paper's exact equality.
  for (std::size_t i = 0; i < theta1.size(); ++i) {
    if (!ApproxEqual(alpha * theta1[i] + beta, theta2[i], tol)) {
      return nullptr;
    }
  }
  if (alpha == 1.0 && beta == 0.0) return IdentityMapping::Make();
  return std::make_shared<LinearMapping>(alpha, beta);
}

/// Feeds the linear normal form of `fp` (anchored at `distinct`) to
/// `emit` one word at a time.
template <typename Emit>
void EmitLinearNormalForm(const Fingerprint& fp,
                          const FingerprintAnchor& distinct, double quantum,
                          Emit&& emit) {
  if (!distinct) {
    // All constant fingerprints share one bucket: every pair is mappable
    // by translation.
    emit(0xC0115741'00000000ULL);  // "constant" tag
    for (std::size_t i = 0; i < fp.size(); ++i) emit(0);
    return;
  }

  const auto [i0, i1] = *distinct;
  const double a = fp[i0];
  const double b = fp[i1];
  emit(0x401A'0000'0000'0000ULL ^ fp.size());
  for (std::size_t i = 0; i < fp.size(); ++i) {
    const double normalized = (fp[i] - a) / (b - a);
    // Quantize for hashing. Candidates from a shared bucket are always
    // re-validated by FindMapping, so quantization can only cause (rare)
    // extra bases, never incorrect reuse. Non-finite entries (a model
    // returned NaN/Inf) get a sentinel: such fingerprints never map, but
    // they must not poison the hash (llround on NaN is undefined).
    const double scaled = normalized / quantum;
    const std::uint64_t q =
        std::isfinite(scaled) && std::fabs(scaled) < 9.0e18
            ? static_cast<std::uint64_t>(std::llround(scaled))
            : 0x7FF0DEAD00000000ULL ^ i;
    emit(q);
  }
}

}  // namespace

std::optional<std::uint64_t> MappingFinder::NormalFormHash(
    const Fingerprint& fp, const FingerprintAnchor& /*anchor*/, double tol,
    double quantum) const {
  auto nf = NormalForm(fp, tol, quantum);
  if (!nf) return std::nullopt;
  return HashWords(*nf);
}

MappingPtr FindLinearMapping(const Fingerprint& theta1,
                             const Fingerprint& theta2, double tol) {
  return FindLinearMappingAnchored(theta1, theta1.FirstTwoDistinct(tol),
                                   theta2, theta2.FirstTwoDistinct(tol), tol);
}

MappingPtr LinearMappingFinder::Find(const Fingerprint& from,
                                     const Fingerprint& to,
                                     double tol) const {
  return FindAnchored(from, from.FirstTwoDistinct(tol), to,
                      to.FirstTwoDistinct(tol), tol);
}

MappingPtr LinearMappingFinder::FindAnchored(
    const Fingerprint& from, const FingerprintAnchor& from_anchor,
    const Fingerprint& to, const FingerprintAnchor& to_anchor,
    double tol) const {
  if (!allow_constant_reuse_ && !from_anchor) {
    // Paper-literal Algorithm 2: alpha is indeterminate on constant
    // fingerprints, so no mapping is ever found.
    return nullptr;
  }
  return FindLinearMappingAnchored(from, from_anchor, to, to_anchor, tol);
}

std::optional<std::vector<std::uint64_t>> LinearMappingFinder::NormalForm(
    const Fingerprint& fp, double tol, double quantum) const {
  std::vector<std::uint64_t> key;
  key.reserve(fp.size() + 1);
  EmitLinearNormalForm(fp, fp.FirstTwoDistinct(tol), quantum,
                       [&key](std::uint64_t w) { key.push_back(w); });
  return key;
}

std::optional<std::uint64_t> LinearMappingFinder::NormalFormHash(
    const Fingerprint& fp, const FingerprintAnchor& anchor, double /*tol*/,
    double quantum) const {
  std::uint64_t h = kHashWordsSeed;
  EmitLinearNormalForm(fp, anchor, quantum,
                       [&h](std::uint64_t w) { h = HashCombine(h, w); });
  return h;
}

MappingFinderPtr LinearMappingFinder::Make() {
  static const MappingFinderPtr kInstance =
      std::make_shared<LinearMappingFinder>();
  return kInstance;
}

MappingFinderPtr LinearMappingFinder::MakeStrict() {
  static const MappingFinderPtr kInstance =
      std::make_shared<LinearMappingFinder>(/*allow_constant_reuse=*/false);
  return kInstance;
}

}  // namespace jigsaw
