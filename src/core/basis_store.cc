#include "core/basis_store.h"

#include <utility>

#include "util/logging.h"

namespace jigsaw {

// Every method locks via MutexLockMaybe: engaged on the thread-safe path,
// disengaged (no atomic ops at all) on the single-threaded one, where the
// caller's serial contract stands in for the lock (see util/mutex.h).

std::optional<BasisMatch> BasisStore::FindMatch(const Fingerprint& probe) {
  MutexLockMaybe lock(&mu_, thread_safe_);
  ++stats_.lookups;
  const FingerprintAnchor anchor = probe.FirstTwoDistinct(tol_);
  index_->GetCandidates(probe, anchor, &candidate_buffer_);
  for (BasisId id : candidate_buffer_) {
    ++stats_.candidates_tested;
    const BasisDistribution& basis = bases_[id];
    MappingPtr m = finder_->FindAnchored(basis.fingerprint, basis.anchor,
                                         probe, anchor, tol_);
    if (m != nullptr) {
      ++stats_.hits;
      ++bases_[id].reuse_count;
      return BasisMatch{id, std::move(m)};
    }
    ++stats_.false_positive_candidates;
  }
  ++stats_.misses;
  return std::nullopt;
}

const BasisDistribution& BasisStore::Insert(Fingerprint fp,
                                            OutputMetrics metrics) {
  MutexLockMaybe lock(&mu_, thread_safe_);
  const auto id = static_cast<BasisId>(bases_.size());
  const FingerprintAnchor anchor = fp.FirstTwoDistinct(tol_);
  index_->Insert(id, fp, anchor);
  bases_.push_back(BasisDistribution{id, std::move(fp), anchor,
                                     std::move(metrics),
                                     /*reuse_count=*/0});
  return bases_.back();
}

void BasisStore::SetMetrics(BasisId id, OutputMetrics metrics) {
  MutexLockMaybe lock(&mu_, thread_safe_);
  JIGSAW_CHECK_MSG(id < bases_.size(), "SetMetrics on unknown basis");
  bases_[id].metrics = std::move(metrics);
}

const BasisDistribution& BasisStore::Get(BasisId id) const {
  MutexLockMaybe lock(&mu_, thread_safe_);
  return bases_[id];
}

std::size_t BasisStore::size() const {
  MutexLockMaybe lock(&mu_, thread_safe_);
  return bases_.size();
}

BasisStoreStats BasisStore::stats() const {
  MutexLockMaybe lock(&mu_, thread_safe_);
  return stats_;
}

const std::string& BasisStore::index_name() const {
  MutexLockMaybe lock(&mu_, thread_safe_);
  // name() returns a reference to an immutable per-class string, so the
  // reference stays valid past the lock scope.
  return index_->name();
}

}  // namespace jigsaw
