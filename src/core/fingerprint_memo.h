#pragma once

/// \file fingerprint_memo.h
/// A run-scoped memo of black-box fingerprint draws.
///
/// Every parameter point is fingerprinted under the same seeds sigma_0 ..
/// sigma_{m-1} (Section 3.1), so inside one run the fingerprint outputs
/// of a model call depend only on (call site, model, arguments). A model
/// that ignores some swept parameters — Figure 1's DemandModel reads two
/// of the four — is called with the same arguments at many points. The
/// memo evaluates such a call once and replays its m outputs afterwards.
///
/// Exactness: BlackBox::EvalBatch's contract makes sample i equal to
/// Eval(params, StreamAt(i, call_site)), a pure function of the model,
/// the argument values, the (salted) call site and seed i. The key holds
/// all of them: the salted call site, the model object (kept alive by the
/// memo, so its address cannot be reused), the arguments' bit patterns
/// (-0.0 and +0.0, or two NaN payloads, are distinct keys) and, through
/// the memo's binding, the seed vector and m.
///
/// Footprint: one table per (call site, model), at most kMaxTables of
/// them, each holding at most kTableBytes of keys, outputs and slots. A
/// table never evicts: once full it keeps serving its resident keys and
/// evaluates new ones without remembering them, so a call site whose
/// distinct tuples outnumber the table (Figure 1's CapacityModel) cannot
/// push out a sibling site's few hot keys (DemandModel's). Call sites past
/// kMaxTables are evaluated directly. The memo is not thread-safe; a
/// SimulationRunner uses it only on its calling thread.
///
/// Pre-derived streams: under seed-schema v1, sample i at salted call
/// site c always starts from RandomStream(DeriveStreamSeed(sigma_i, c)),
/// whatever the model or its arguments. Each table derives its call
/// site's m starting streams once, when it is created, and a miss hands
/// them to the model through SeedSpan::WithStreams, so the model copies a
/// stream instead of paying a Philox block and a SplitMix64 expansion per
/// sample. The copy is the stream the model would have derived, so the
/// draws are unchanged. Schema v2 draws from planes and gets no streams;
/// call sites without a table derive per sample as before.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "models/black_box.h"
#include "random/seed_vector.h"

namespace jigsaw {

class FingerprintMemo {
 public:
  /// Byte budget of one call site's table: its keys, outputs and slots.
  static constexpr std::size_t kTableBytes = 64 * 1024;
  /// Call sites that get a table; the memo never holds more than
  /// kMaxTables * kTableBytes.
  static constexpr std::size_t kMaxTables = 8;

  /// Binds the memo to the run's seed vector and fingerprint size m. The
  /// seed vector must outlive the memo.
  FingerprintMemo(const SeedVector& seeds, std::size_t m)
      : seeds_(&seeds), m_(m) {}

  FingerprintMemo(const FingerprintMemo&) = delete;
  FingerprintMemo& operator=(const FingerprintMemo&) = delete;

  /// True when a model call over samples [sample_begin, sample_begin + n)
  /// of `seeds` is exactly a fingerprint call of this memo's run.
  bool Covers(const SeedVector* seeds, std::size_t sample_begin,
              std::size_t n) const {
    return seeds == seeds_ && sample_begin == 0 && n == m_;
  }

  /// Writes samples [0, m) of `model` at `args` and (salted) `call_site`
  /// into `out` (size m): replayed when the tuple is resident, otherwise
  /// one EvalBatch, remembered while the call site's table has room.
  void Eval(const BlackBoxPtr& model, std::span<const double> args,
            std::uint64_t call_site, std::span<double> out);

  /// Calls answered from the memo without evaluating the model.
  std::uint64_t hits() const { return hits_; }

  /// Tables that carry pre-derived streams (one per v1 call site with a
  /// table; none under v2).
  std::size_t tables_with_streams() const;

 private:
  /// Open-addressed table of one (call site, model). Entry e's argument
  /// bits are keys[e*arity, (e+1)*arity) and its outputs values[e*m,
  /// (e+1)*m); slots hold e + 1, or 0 when empty. `streams` holds the
  /// call site's m starting streams under v1 and is empty under v2.
  struct Table {
    BlackBoxPtr model;
    std::uint64_t call_site = 0;
    std::size_t arity = 0;
    std::size_t capacity = 0;  ///< entries; half the slots at most
    std::size_t size = 0;
    std::vector<std::uint32_t> slots;
    std::vector<std::uint64_t> keys;
    std::vector<double> values;
    std::vector<RandomStream> streams;
  };

  /// The table of (call site, model), created on first use; null when
  /// kMaxTables are taken by other sites or one entry exceeds the budget.
  Table* TableFor(const BlackBoxPtr& model, std::uint64_t call_site,
                  std::size_t arity);

  const SeedVector* seeds_;
  std::size_t m_;
  std::vector<Table> tables_;
  std::uint64_t hits_ = 0;
};

}  // namespace jigsaw
