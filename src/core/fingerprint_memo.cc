#include "core/fingerprint_memo.h"

#include <algorithm>
#include <bit>

#include "util/hash.h"
#include "util/logging.h"

namespace jigsaw {

namespace {

std::uint64_t ArgBits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint64_t HashArgs(std::span<const double> args) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (double a : args) h = HashCombine(h, ArgBits(a));
  return h;
}

}  // namespace

FingerprintMemo::Table* FingerprintMemo::TableFor(const BlackBoxPtr& model,
                                                  std::uint64_t call_site,
                                                  std::size_t arity) {
  for (Table& t : tables_) {
    if (t.call_site == call_site && t.model == model) {
      return t.arity == arity ? &t : nullptr;
    }
  }
  if (tables_.size() == kMaxTables) return nullptr;
  // An entry costs its argument and output words plus two 4-byte slots:
  // the slot count is a power of two at least twice the entries, so a
  // probe always ends at an empty slot.
  const std::size_t entry_bytes =
      (arity + m_) * sizeof(double) + 2 * sizeof(std::uint32_t);
  const std::size_t max_entries = kTableBytes / entry_bytes;
  if (max_entries == 0) return nullptr;
  Table& t = tables_.emplace_back();
  t.model = model;
  t.call_site = call_site;
  t.arity = arity;
  t.slots.assign(std::bit_floor(2 * max_entries), 0);
  t.capacity = t.slots.size() / 2;
  t.keys.reserve(t.capacity * arity);
  t.values.reserve(t.capacity * m_);
  if (seeds_->schema() == SeedSchema::kV1) {
    t.streams.reserve(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      t.streams.push_back(seeds_->StreamFor(i, call_site));
    }
  }
  return &t;
}

std::size_t FingerprintMemo::tables_with_streams() const {
  return static_cast<std::size_t>(
      std::count_if(tables_.begin(), tables_.end(),
                    [](const Table& t) { return !t.streams.empty(); }));
}

void FingerprintMemo::Eval(const BlackBoxPtr& model,
                           std::span<const double> args,
                           std::uint64_t call_site, std::span<double> out) {
  JIGSAW_DCHECK(out.size() == m_);
  Table* t = TableFor(model, call_site, args.size());
  if (t == nullptr) {
    model->EvalBatch(args, seeds_->span(0, m_), call_site, out);
    return;
  }
  const std::size_t mask = t->slots.size() - 1;
  std::size_t s = HashArgs(args) & mask;
  for (; t->slots[s] != 0; s = (s + 1) & mask) {
    const std::size_t e = t->slots[s] - 1;
    const std::uint64_t* key = t->keys.data() + e * t->arity;
    bool same = true;
    for (std::size_t i = 0; i < args.size(); ++i) {
      same = same && key[i] == ArgBits(args[i]);
    }
    if (same) {
      const double* v = t->values.data() + e * m_;
      std::copy(v, v + m_, out.begin());
      ++hits_;
      return;
    }
  }
  SeedSpan seeds = seeds_->span(0, m_);
  if (!t->streams.empty()) seeds = seeds.WithStreams(t->streams, call_site);
  model->EvalBatch(args, seeds, call_site, out);
  if (t->size == t->capacity) return;
  t->slots[s] = static_cast<std::uint32_t>(++t->size);
  for (double a : args) t->keys.push_back(ArgBits(a));
  t->values.insert(t->values.end(), out.begin(), out.end());
}

}  // namespace jigsaw
