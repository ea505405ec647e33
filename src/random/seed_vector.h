#pragma once

/// \file seed_vector.h
/// The global seed vector {sigma_k} of Section 3.1. Jigsaw fixes one
/// sequence of seeds at initialization and uses seed sigma_k for the k'th
/// Monte Carlo sample of *every* parameter point. The fingerprint of a
/// point is its first m outputs; because the same seeds are used
/// everywhere, correlated points produce deterministically mappable
/// fingerprints.
///
/// SeedVector is a schema-dispatching facade (see draw_plane.h):
///
///   v1 — materializes the SplitMix64-expanded seed table and derives one
///        Xoshiro256 stream per (sample, call site) cell. Byte-exact with
///        every pre-v2 run.
///   v2 — no table at all: the vector is just (master seed, logical
///        size), streams are counter-based, and batch kernels pull whole
///        draw planes with one Philox block per four samples.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "random/draw_plane.h"
#include "random/philox.h"
#include "random/random_stream.h"
#include "random/splitmix64.h"
#include "util/logging.h"

namespace jigsaw {

/// A schema-tagged view of samples [k_begin, k_begin + size) — the batch
/// kernels' seed input. Under v1 it wraps the contiguous sigma span;
/// under v2 it carries (master seed, k_begin) so kernels can derive draw
/// planes directly. Implicitly constructible from a raw sigma span so
/// v1-only call sites keep their existing shape.
class SeedSpan {
 public:
  /// v1 view over explicit sigmas (implicit on purpose).
  SeedSpan(std::span<const std::uint64_t> sigmas)  // NOLINT
      : schema_(SeedSchema::kV1), sigmas_(sigmas) {}

  /// v2 view: samples [k_begin, k_begin + count) under `master_seed`.
  SeedSpan(std::uint64_t master_seed, std::size_t k_begin, std::size_t count)
      : schema_(SeedSchema::kV2),
        master_(master_seed),
        k_begin_(k_begin),
        count_(count) {}

  SeedSchema schema() const { return schema_; }

  std::size_t size() const {
    return schema_ == SeedSchema::kV1 ? sigmas_.size() : count_;
  }

  /// v2 only: the absolute sample index of entry 0, and the Philox key
  /// for a call site (hoist out of per-sample loops).
  std::size_t k_begin() const { return k_begin_; }
  std::uint64_t draw_key(std::uint64_t call_site) const {
    JIGSAW_DCHECK(schema_ == SeedSchema::kV2);
    return DrawKey(master_, call_site);
  }

  /// v1 only: this view carrying `streams`, its entries' starting streams
  /// at `call_site` derived ahead of time — streams[i] must equal
  /// RandomStream(DeriveStreamSeed(sigma_i, call_site)), sigma_i being
  /// entry i's seed. StreamAt then copies them instead of deriving; other
  /// call sites still derive. `streams` must outlive the view.
  SeedSpan WithStreams(std::span<const RandomStream> streams,
                       std::uint64_t call_site) const {
    JIGSAW_DCHECK(schema_ == SeedSchema::kV1 &&
                  streams.size() == sigmas_.size());
    SeedSpan out = *this;
    out.streams_ = streams.data();
    out.streams_site_ = call_site;
    return out;
  }

  /// The deterministic stream for entry i at `call_site` — the scalar
  /// twin every batch kernel must reproduce bit-for-bit.
  RandomStream StreamAt(std::size_t i, std::uint64_t call_site) const {
    if (schema_ == SeedSchema::kV1) {
      if (streams_ != nullptr && call_site == streams_site_) {
        return streams_[i];
      }
      return RandomStream(DeriveStreamSeed(sigmas_[i], call_site));
    }
    return RandomStream(
        CounterStream(DrawKey(master_, call_site), k_begin_ + i));
  }

 private:
  SeedSchema schema_;
  std::span<const std::uint64_t> sigmas_;
  /// v1: pre-derived streams of every entry at streams_site_, or null.
  const RandomStream* streams_ = nullptr;
  std::uint64_t streams_site_ = 0;
  std::uint64_t master_ = 0;
  std::size_t k_begin_ = 0;
  std::size_t count_ = 0;
};

class SeedVector {
 public:
  /// v1: expands `master_seed` into `count` sample seeds. v2: records the
  /// logical size only — there is no table to expand.
  SeedVector(std::uint64_t master_seed, std::size_t count,
             SeedSchema schema = SeedSchema::kV1)
      : master_seed_(master_seed), schema_(schema), cont_(master_seed) {
    if (schema_ == SeedSchema::kV1) {
      seeds_.reserve(count);
      for (std::size_t i = 0; i < count; ++i) seeds_.push_back(cont_.Next());
    } else {
      virtual_size_ = count;
    }
  }

  std::uint64_t master_seed() const { return master_seed_; }
  SeedSchema schema() const { return schema_; }
  std::size_t size() const {
    return schema_ == SeedSchema::kV1 ? seeds_.size() : virtual_size_;
  }

  /// v1 only: the k'th sample seed.
  std::uint64_t seed(std::size_t k) const {
    JIGSAW_DCHECK(schema_ == SeedSchema::kV1);
    return seeds_[k];
  }

  /// v1 only: contiguous view of seeds [begin, begin + count).
  /// Invalidated by EnsureSize (which may reallocate). The bounds check
  /// is overflow-safe: `begin + count` could wrap for adversarial counts.
  std::span<const std::uint64_t> seed_span(std::size_t begin,
                                           std::size_t count) const {
    JIGSAW_DCHECK(schema_ == SeedSchema::kV1);
    JIGSAW_DCHECK(begin <= seeds_.size() &&
                  count <= seeds_.size() - begin);
    return std::span<const std::uint64_t>(seeds_).subspan(begin, count);
  }

  /// Schema-dispatching view of samples [begin, begin + count) — what
  /// batch kernels receive through BlackBox::EvalBatch.
  SeedSpan span(std::size_t begin, std::size_t count) const {
    JIGSAW_DCHECK(begin <= size() && count <= size() - begin);
    if (schema_ == SeedSchema::kV1) {
      return SeedSpan(
          std::span<const std::uint64_t>(seeds_).subspan(begin, count));
    }
    return SeedSpan(master_seed_, begin, count);
  }

  /// Extends the vector (interactive mode grows fingerprints lazily).
  /// Append-stable by contract: entry k is always the k'th output of
  /// SplitMix64(master) no matter how growth was chunked, so a vector
  /// grown to n is element-identical to one constructed at n. (The
  /// pre-v2 continuation reseeded from the current size, making grown
  /// entries depend on the growth path.) Under v2 growth is free.
  void EnsureSize(std::size_t count) {
    if (schema_ != SeedSchema::kV1) {
      if (count > virtual_size_) virtual_size_ = count;
      return;
    }
    while (seeds_.size() < count) seeds_.push_back(cont_.Next());
  }

  /// Builds the deterministic stream for sample k at black-box call site
  /// `call_site`. The same (k, call_site) pair always yields the same
  /// stream regardless of evaluation order or thread scheduling.
  RandomStream StreamFor(std::size_t k, std::uint64_t call_site) const {
    if (schema_ == SeedSchema::kV1) {
      return RandomStream(DeriveStreamSeed(seeds_[k], call_site));
    }
    return RandomStream(
        CounterStream(DrawKey(master_seed_, call_site), k));
  }

  /// v2 only: the Philox key shared by every sample at `call_site` —
  /// batch kernels hoist this and pull draw planes against it.
  std::uint64_t draw_key(std::uint64_t call_site) const {
    JIGSAW_DCHECK(schema_ == SeedSchema::kV2);
    return DrawKey(master_seed_, call_site);
  }

 private:
  std::uint64_t master_seed_;
  SeedSchema schema_;
  std::vector<std::uint64_t> seeds_;     ///< v1 seed table
  std::size_t virtual_size_ = 0;         ///< v2 logical size
  SplitMix64 cont_;  ///< v1 continuation state (EnsureSize appends)
};

}  // namespace jigsaw
