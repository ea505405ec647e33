#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>

#include <sched.h>

#include "core/run_config.h"
#include "models/cloud_models.h"

namespace perfbench {

std::uint64_t MasterSeed(std::uint64_t seed) {
  return jigsaw::RunConfig{}.master_seed + seed;
}

void NoteRequestSeeds(std::uint64_t first, std::uint64_t count,
                      RunResult* out) {
  out->notes["request_seeds"] =
      count == 1 ? std::to_string(first)
                 : std::to_string(first) + "-" +
                       std::to_string(first + count - 1);
}

namespace {

/// The CPUs in this process's affinity mask at start-up.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) allowed.push_back(c);
      }
    }
    return allowed;
  }();
  return cpus;
}

}  // namespace

std::size_t HardwareThreads() {
  return std::max<std::size_t>(1, AllowedCpus().size());
}

void PinToCpu(std::size_t i) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[i % cpus.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

void Unpin() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : AllowedCpus()) CPU_SET(c, &set);
  if (CPU_COUNT(&set) > 0) sched_setaffinity(0, sizeof set, &set);
}

double TimeSetupBatch(const std::function<bool()>& setup, int repeats) {
  bool ok = true;
  const double t0 = Now();
  for (int i = 0; i < repeats; ++i) ok = setup() && ok;
  const double mean = (Now() - t0) / static_cast<double>(repeats);
  return ok ? mean : -1.0;
}

void Checksum::Fold(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  h_ = (h_ ^ u) * 0x100000001b3ULL;
}

void Checksum::FoldMetrics(const jigsaw::OutputMetrics& m) {
  for (double x : {static_cast<double>(m.count), m.mean, m.stddev,
                   m.std_error, m.min, m.max, m.p50, m.p95}) {
    Fold(x);
  }
}

void Checksum::FoldColumns(
    const std::map<std::string, jigsaw::OutputMetrics>& columns) {
  for (const auto& [name, m] : columns) FoldMetrics(m);
}

void Checksum::FoldOptimize(const jigsaw::OptimizeResult& r) {
  for (const auto& g : r.groups) {
    for (double v : g.group_valuation) Fold(v);
    for (double v : g.constraint_lhs) Fold(v);
    Fold(g.feasible ? 1.0 : 0.0);
  }
  for (double v : r.best_valuation) Fold(v);
}

std::string Checksum::Hex() const { return perfbench::Hex(h_); }

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Tail TailLatency(std::vector<double> xs, std::size_t beyond) {
  Tail t;
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  // Index i has n - 1 - i samples above it; pick the highest index that
  // keeps `beyond` of them (the maximum when the run is shorter).
  const std::size_t i = n > beyond ? n - 1 - beyond : n - 1;
  t.value = xs[i];
  t.percentile = n > 1 ? 100.0 * static_cast<double>(i) /
                             static_cast<double>(n - 1)
                       : 100.0;
  t.samples_beyond = n - 1 - i;
  return t;
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

/// Forwards every call to the wrapped model, counting calls and samples
/// and (when timed) the wall time spent inside the model.
class CountedModel : public jigsaw::BlackBox {
 public:
  CountedModel(jigsaw::BlackBoxPtr inner, ModelCounters* counters,
               bool timed)
      : inner_(std::move(inner)), counters_(counters), timed_(timed) {}

  const std::string& name() const override { return inner_->name(); }
  const std::vector<std::string>& param_names() const override {
    return inner_->param_names();
  }

  double Eval(std::span<const double> params,
              jigsaw::RandomStream& rng) const override {
    const auto start = timed_ ? Clock::now() : Clock::time_point{};
    const double v = inner_->Eval(params, rng);
    Account(1, start);
    return v;
  }

  void EvalBatch(std::span<const double> params, jigsaw::SeedSpan seeds,
                 std::uint64_t call_site,
                 std::span<double> out) const override {
    const auto start = timed_ ? Clock::now() : Clock::time_point{};
    inner_->EvalBatch(params, seeds, call_site, out);
    Account(out.size(), start);
  }

 private:
  using Clock = std::chrono::steady_clock;

  void Account(std::size_t samples, Clock::time_point start) const {
    counters_->calls.fetch_add(1, std::memory_order_relaxed);
    counters_->samples.fetch_add(samples, std::memory_order_relaxed);
    if (timed_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - start)
                          .count();
      counters_->nanos.fetch_add(static_cast<std::uint64_t>(ns),
                                 std::memory_order_relaxed);
    }
  }

  jigsaw::BlackBoxPtr inner_;
  ModelCounters* counters_;
  bool timed_;
};

}  // namespace

jigsaw::Status RegisterCountedCloudModels(jigsaw::ModelRegistry* registry,
                                          ModelCounters* counters,
                                          bool timed) {
  jigsaw::ModelRegistry native;
  if (auto s = jigsaw::RegisterCloudModels(&native); !s.ok()) return s;
  for (const std::string& name : native.ModelNames()) {
    auto model = native.Lookup(name);
    if (!model.ok()) return model.status();
    if (auto s = registry->Register(std::make_shared<CountedModel>(
            model.value(), counters, timed));
        !s.ok()) {
      return s;
    }
  }
  return jigsaw::Status::OK();
}

const std::vector<LayerMetricDef>& LayerMetricDefs() {
  static const std::vector<LayerMetricDef> kDefs = {
      {"sql.parse_s", "s"},
      {"sql.bind_s", "s"},
      {"sql.run_s", "s"},
      {"models.eval_s", "s"},
      {"models.calls", "count"},
      {"models.samples", "count"},
      {"models.samples_per_call", "count"},
      {"core.optimize_s", "s"},
      {"core.optimize_self_s", "s"},
      {"core.points_evaluated", "count"},
      {"core.points_reused", "count"},
      {"core.reuse_rate", "ratio"},
      {"core.bases", "count"},
      {"core.column_samples", "count"},
      {"core.basis_lookups", "count"},
      {"core.candidates_per_lookup", "count"},
      {"core.false_positive_rate", "ratio"},
      {"core.fold_s", "s"},
      {"core.finalize_s", "s"},
      {"pdb.realize_s", "s"},
      {"pdb.rows_realized", "count"},
      {"pdb.join_s", "s"},
      {"pdb.join_pairs", "count"},
      {"pdb.join_pairs_per_left_row", "count"},
      {"pdb.tuples_folded", "count"},
      {"pdb.cache_generations", "count"},
      {"pdb.cache_hit_rate", "ratio"},
      {"serve.warm_hit_rate.shared", "ratio"},
      {"serve.warm_hit_rate.private", "ratio"},
      {"serve.publish_s", "s"},
      {"serve.contention_s", "s"},
      {"interactive.prime_s", "s"},
      {"interactive.tick_s", "s"},
      {"interactive.ticks", "count"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kDefs;
}

void RunResult::InitLayers() {
  metrics.clear();
  for (const LayerMetricDef& def : LayerMetricDefs()) {
    metrics[def.name] = Metric{0.0, def.unit};
  }
}

void RunResult::Layer(const std::string& name, double value) {
  auto it = metrics.find(name);
  if (it == metrics.end()) {
    Error("unknown per-layer metric " + name);
    return;
  }
  it->second.value = value;
}

void RunResult::EndToEnd(const std::vector<double>& setup_s,
                         const std::vector<double>& latencies_s,
                         double elapsed_s, double peak_rss_mib) {
  const Tail tail = TailLatency(latencies_s);
  metrics["setup_s"] = {Median(setup_s), "s"};
  metrics["request_p50_s"] = {Median(latencies_s), "s"};
  metrics["request_tail_s"] = {tail.value, "s"};
  metrics["requests_per_s"] = {
      elapsed_s > 0.0 ? static_cast<double>(latencies_s.size()) / elapsed_s
                      : 0.0,
      "1/s"};
  metrics["peak_rss_mib"] = {peak_rss_mib, "MiB"};
  details["request_tail_percentile"] = tail.percentile;
  details["request_tail_samples_beyond"] =
      static_cast<double>(tail.samples_beyond);
  details["requests"] = static_cast<double>(latencies_s.size());
  details["setup_samples"] = static_cast<double>(setup_s.size());
  details["measured_s"] = elapsed_s;
}

bool CheckExpected(const Options& opt, const std::string& key,
                   const std::string& actual,
                   std::optional<std::string>* first) {
  auto it = opt.expect.find(key);
  if (it != opt.expect.end()) return actual == it->second;
  if (!first->has_value()) *first = actual;
  return actual == **first;
}

}  // namespace perfbench
