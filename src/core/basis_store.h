#pragma once

/// \file basis_store.h
/// The set of basis distributions maintained during execution (Section
/// 3.1, "Using Fingerprints"): tuples (theta_i, o_i) recording that the
/// output metrics o_i were fully computed for a simulation whose
/// fingerprint was theta_i. FindMatch implements lines 2-6 of Algorithm 3:
/// prune with the index, then validate candidates with FindMapping.
///
/// Thread-safety (annotated; machine-checked under Clang): FindMatch,
/// Insert, SetMetrics, size() and stats() serialize on mu_ whenever the
/// store was constructed thread-safe. A store constructed with
/// thread_safe=false skips the mutex entirely (serial sweeps pay no lock
/// overhead) and must never see concurrency — that runtime contract is
/// the one thing the static analysis cannot see, so the serial trampolines
/// are the only JIGSAW_NO_THREAD_SAFETY_ANALYSIS sites in this class.
/// Get() returns a reference into the deque — stable across Inserts —
/// but dereferencing .metrics still requires writers to have quiesced
/// (the parallel sweep reads exclusively between its phases; published
/// serving stores are frozen at publish time). The parallel sweep
/// exploits the deferred-metrics protocol — Insert registers a
/// fingerprint (making it matchable) before its expensive full simulation
/// has produced metrics, which SetMetrics fills in later.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/fingerprint.h"
#include "core/fingerprint_index.h"
#include "core/mapping.h"
#include "core/metrics.h"
#include "util/annotations.h"
#include "util/mutex.h"

namespace jigsaw {

struct BasisDistribution {
  BasisId id = 0;
  Fingerprint fingerprint;
  /// fingerprint.FirstTwoDistinct(tol), computed once at Insert so
  /// lookups against a published store only read it.
  FingerprintAnchor anchor;
  OutputMetrics metrics;
  /// How many parameter points have reused this basis.
  std::uint64_t reuse_count = 0;
};

struct BasisMatch {
  BasisId basis_id;
  MappingPtr mapping;  ///< maps basis domain -> probe domain
};

/// Counters used by the evaluation (basis counts in Figures 9-11, reuse
/// rates in Figure 8).
struct BasisStoreStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t candidates_tested = 0;
  std::uint64_t false_positive_candidates = 0;
};

class BasisStore {
 public:
  /// `thread_safe = false` elides the mutex on every operation — the
  /// single-threaded sweep path pays no lock overhead. Callers that run
  /// serially (RunConfig::num_threads <= 1) own that guarantee.
  BasisStore(MappingFinderPtr finder, IndexKind index_kind, double tol,
             double quantum, bool thread_safe = true)
      : finder_(std::move(finder)),
        tol_(tol),
        index_(MakeFingerprintIndex(index_kind, finder_, tol, quantum)),
        thread_safe_(thread_safe) {}

  /// Finds a basis whose fingerprint maps onto `probe` (basis -> probe
  /// direction, so basis metrics mapped by the result describe the probe).
  std::optional<BasisMatch> FindMatch(const Fingerprint& probe)
      JIGSAW_EXCLUDES(mu_);

  /// Registers a fully-simulated distribution as a new basis.
  const BasisDistribution& Insert(Fingerprint fp, OutputMetrics metrics)
      JIGSAW_EXCLUDES(mu_);

  /// Fills in the metrics of a basis inserted with placeholder metrics.
  /// Matching consults only fingerprints, so a basis may serve as a match
  /// target while its full simulation is still in flight; callers must
  /// SetMetrics before reading Get(id).metrics.
  void SetMetrics(BasisId id, OutputMetrics metrics) JIGSAW_EXCLUDES(mu_);

  /// Reference into the deque — stable across Inserts. The reference
  /// itself is race-free to obtain (locked on the thread-safe path), but
  /// reading .metrics through it requires writers to have quiesced; the
  /// analysis cannot track a returned reference, so the locked accessor
  /// is the whole static story here.
  const BasisDistribution& Get(BasisId id) const JIGSAW_EXCLUDES(mu_);

  /// Locked on the thread-safe path: safe to call while writers are
  /// active (e.g. probing a shared store's growth mid-run).
  std::size_t size() const JIGSAW_EXCLUDES(mu_);

  /// Snapshot of the counters, taken under the lock on the thread-safe
  /// path (returns by value: a reference into concurrently-mutated
  /// counters would race with FindMatch's increments).
  BasisStoreStats stats() const JIGSAW_EXCLUDES(mu_);

  const std::string& index_name() const JIGSAW_EXCLUDES(mu_);

 private:
  MappingFinderPtr finder_;
  double tol_;
  /// Index structure itself is only mutated under mu_; the pointer is set
  /// once in the constructor.
  std::unique_ptr<FingerprintIndex> index_ JIGSAW_PT_GUARDED_BY(mu_);
  /// Deque, not vector: Insert must not invalidate outstanding references.
  std::deque<BasisDistribution> bases_ JIGSAW_GUARDED_BY(mu_);
  std::vector<BasisId> candidate_buffer_ JIGSAW_GUARDED_BY(mu_);
  BasisStoreStats stats_ JIGSAW_GUARDED_BY(mu_);
  mutable Mutex mu_;
  bool thread_safe_ = true;
};

}  // namespace jigsaw
