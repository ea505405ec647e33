#include "core/fingerprint_index.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/hash.h"
#include "util/logging.h"

namespace jigsaw {

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kArray:
      return "Array";
    case IndexKind::kNormalization:
      return "Normalization";
    case IndexKind::kSortedSid:
      return "SortedSID";
  }
  return "?";
}

std::vector<std::uint32_t> SortedSidKey(const Fingerprint& fp) {
  std::vector<std::uint32_t> sids(fp.size());
  std::iota(sids.begin(), sids.end(), 0);
  // NaN entries sort last (by SID) so the comparator remains a strict
  // weak ordering even for fingerprints of misbehaving models.
  std::stable_sort(sids.begin(), sids.end(),
                   [&fp](std::uint32_t a, std::uint32_t b) {
                     const bool na = std::isnan(fp[a]);
                     const bool nb = std::isnan(fp[b]);
                     if (na || nb) {
                       if (na != nb) return nb;  // non-NaN first
                       return a < b;
                     }
                     if (fp[a] != fp[b]) return fp[a] < fp[b];
                     return a < b;
                   });
  return sids;
}

namespace {

/// Baseline: candidates = every basis, in insertion order.
class ArrayIndex final : public FingerprintIndex {
 public:
  explicit ArrayIndex(double tol) : FingerprintIndex(tol) {}

  const std::string& name() const override {
    static const std::string kName = "Array";
    return kName;
  }

  void Insert(BasisId id, const Fingerprint&,
              const FingerprintAnchor&) override {
    ids_.push_back(id);
  }

  void GetCandidates(const Fingerprint&, const FingerprintAnchor&,
                     std::vector<BasisId>* out) const override {
    *out = ids_;
  }

  std::size_t size() const override { return ids_.size(); }

 private:
  std::vector<BasisId> ids_;
};

/// Hash of the mapping class's canonical normal form; one lookup returns
/// exactly the bases whose normal form matches.
class NormalizationIndex final : public FingerprintIndex {
 public:
  NormalizationIndex(MappingFinderPtr finder, double tol, double quantum)
      : FingerprintIndex(tol), finder_(std::move(finder)), quantum_(quantum) {
    JIGSAW_CHECK_MSG(finder_->SupportsNormalization(),
                     "mapping class '" << finder_->class_name()
                                       << "' has no normal form");
  }

  const std::string& name() const override {
    static const std::string kName = "Normalization";
    return kName;
  }

  void Insert(BasisId id, const Fingerprint& fp,
              const FingerprintAnchor& anchor) override {
    buckets_[KeyOf(fp, anchor)].push_back(id);
    ++size_;
  }

  void GetCandidates(const Fingerprint& probe, const FingerprintAnchor& anchor,
                     std::vector<BasisId>* out) const override {
    out->clear();
    auto it = buckets_.find(KeyOf(probe, anchor));
    if (it != buckets_.end()) *out = it->second;
  }

  std::size_t size() const override { return size_; }

 private:
  std::uint64_t KeyOf(const Fingerprint& fp,
                      const FingerprintAnchor& anchor) const {
    auto key = finder_->NormalFormHash(fp, anchor, tol(), quantum_);
    JIGSAW_CHECK(key.has_value());
    return *key;
  }

  MappingFinderPtr finder_;
  double quantum_;
  std::unordered_map<std::uint64_t, std::vector<BasisId>> buckets_;
  std::size_t size_ = 0;
};

/// Hash of the sorted sample-identifier permutation. Monotone increasing
/// maps preserve the permutation; decreasing maps reverse it, so probes
/// also consult the reversed key ("comparing both the SID sequence and its
/// inverse", Section 3.2).
class SortedSidIndex final : public FingerprintIndex {
 public:
  explicit SortedSidIndex(double tol) : FingerprintIndex(tol) {}

  const std::string& name() const override {
    static const std::string kName = "SortedSID";
    return kName;
  }

  void Insert(BasisId id, const Fingerprint& fp,
              const FingerprintAnchor&) override {
    buckets_[HashIds(SortedSidKey(fp))].push_back(id);
    ++size_;
  }

  void GetCandidates(const Fingerprint& probe, const FingerprintAnchor&,
                     std::vector<BasisId>* out) const override {
    out->clear();
    auto key = SortedSidKey(probe);
    if (auto it = buckets_.find(HashIds(key)); it != buckets_.end()) {
      out->insert(out->end(), it->second.begin(), it->second.end());
    }
    std::reverse(key.begin(), key.end());
    if (auto it = buckets_.find(HashIds(key)); it != buckets_.end()) {
      out->insert(out->end(), it->second.begin(), it->second.end());
    }
  }

  std::size_t size() const override { return size_; }

 private:
  std::unordered_map<std::uint64_t, std::vector<BasisId>> buckets_;
  std::size_t size_ = 0;
};

}  // namespace

std::unique_ptr<FingerprintIndex> MakeFingerprintIndex(
    IndexKind kind, MappingFinderPtr finder, double tol, double quantum) {
  switch (kind) {
    case IndexKind::kArray:
      return std::make_unique<ArrayIndex>(tol);
    case IndexKind::kNormalization:
      return std::make_unique<NormalizationIndex>(std::move(finder), tol,
                                                  quantum);
    case IndexKind::kSortedSid:
      return std::make_unique<SortedSidIndex>(tol);
  }
  JIGSAW_CHECK_MSG(false, "unknown index kind");
  return nullptr;
}

}  // namespace jigsaw
