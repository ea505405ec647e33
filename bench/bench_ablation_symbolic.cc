// Ablation (paper Section 6.2's proposed improvement, implemented):
// symbolic execution for boolean queries.
//
// "This strongly suggests that Jigsaw's techniques can be further
// improved by incorporating them into a database engine with a symbolic
// execution strategy (e.g. PIP). In such a system, database operations
// between random variables mapped from the same basis distribution are
// resolved symbolically."
//
// Three ways to sweep the Overload query P(capacity < demand):
//   Boolean:   the Overload black box through the fingerprint runner —
//              the paper's measured (weak) case;
//   Symbolic:  Demand and Capacity through the fingerprint runner with
//              retained basis samples, then P(X > Y) via one pass over
//              seed-aligned cached samples (no further invocations);
//   Full:      naive generate-everything on the boolean query.
//
// Expected shape: Symbolic recovers the parents' near-full reuse and
// beats Boolean whenever boolean fingerprints fragment, at identical
// estimate quality ("max_abs_err" counter vs the Full reference).

#include "bench_common.h"

#include "util/timer.h"

#include <cmath>

#include "core/symbolic.h"
#include "models/cloud_models.h"

namespace {

using namespace jigsaw;
using bench::PaperConfig;

ParameterSpace OverloadSpace() {
  ParameterSpace space;
  (void)space.Add({"week", RangeDomain{30, 55, 1}});
  (void)space.Add({"p1", RangeDomain{28, 52, 4}});
  (void)space.Add({"p2", RangeDomain{28, 52, 4}});
  return space;
}

std::vector<double> FullReference() {
  static std::vector<double> reference = [] {
    BlackBoxSimFunction fn(MakeOverloadModel({}));
    RunConfig cfg = PaperConfig();
    cfg.use_fingerprints = false;
    SimulationRunner runner(cfg);
    std::vector<double> out;
    for (const auto& r : runner.RunSweep(fn, OverloadSpace())) {
      out.push_back(r.MappedMetrics().mean);
    }
    return out;
  }();
  return reference;
}

void BM_Overload_Full(benchmark::State& state) {
  BlackBoxSimFunction fn(MakeOverloadModel({}));
  RunConfig cfg = PaperConfig();
  cfg.use_fingerprints = false;
  for (auto _ : state) {
    SimulationRunner runner(cfg);
    WallTimer timer;
    benchmark::DoNotOptimize(runner.RunSweep(fn, OverloadSpace()));
    state.SetIterationTime(timer.ElapsedSeconds());
  }
}

void BM_Overload_Boolean(benchmark::State& state) {
  BlackBoxSimFunction fn(MakeOverloadModel({}));
  const auto reference = FullReference();
  double max_err = 0.0;
  std::uint64_t invocations = 0;
  for (auto _ : state) {
    SimulationRunner runner(PaperConfig());
    WallTimer timer;
    const auto results = runner.RunSweep(fn, OverloadSpace());
    state.SetIterationTime(timer.ElapsedSeconds());
    max_err = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      max_err = std::max(
          max_err, std::fabs(results[i].MappedMetrics().mean - reference[i]));
    }
    invocations = runner.stats().blackbox_invocations;
  }
  state.counters["max_abs_err"] = max_err;
  state.counters["invocations"] = static_cast<double>(invocations);
}

void BM_Overload_Symbolic(benchmark::State& state) {
  CloudModelConfig mcfg;
  BlackBoxSimFunction demand_fn(MakeDemandModel(mcfg), /*call_site=*/1);
  BlackBoxSimFunction capacity_fn(MakeCapacityModel(mcfg), /*call_site=*/2);
  const auto reference = FullReference();
  const ParameterSpace space = OverloadSpace();

  RunConfig cfg = PaperConfig();
  cfg.keep_samples = true;  // symbolic execution reads basis samples

  double max_err = 0.0;
  std::uint64_t invocations = 0;
  for (auto _ : state) {
    SimulationRunner runner(cfg);
    WallTimer timer;
    double err = 0.0;
    for (std::size_t i = 0; i < space.NumPoints(); ++i) {
      const auto v = space.ValuationAt(i);
      const std::vector<double> dparams = {v[0], 1e9};  // feature ignored
      const auto dpoint = runner.RunPoint(demand_fn, dparams);
      const auto cpoint = runner.RunPoint(capacity_fn, v);
      auto dsym = SymbolicVar::FromPoint(runner.basis_store(), dpoint);
      auto csym = SymbolicVar::FromPoint(runner.basis_store(), cpoint);
      if (!dsym.ok() || !csym.ok()) {
        state.SkipWithError("symbolic view unavailable");
        break;
      }
      auto p = dsym.value().ProbGreater(csym.value());
      if (!p.ok()) {
        state.SkipWithError(p.status().ToString().c_str());
        break;
      }
      err = std::max(err, std::fabs(p.value() - reference[i]));
    }
    state.SetIterationTime(timer.ElapsedSeconds());
    max_err = err;
    invocations = runner.stats().blackbox_invocations;
  }
  state.counters["max_abs_err"] = max_err;
  state.counters["invocations"] = static_cast<double>(invocations);
}

BENCHMARK(BM_Overload_Full)->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1);
BENCHMARK(BM_Overload_Boolean)->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1);
BENCHMARK(BM_Overload_Symbolic)->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
