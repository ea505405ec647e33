// Ablation (ours): quantifying the Section 6.2 accuracy claim.
//
// "We have not observed any significant error of this sort in any of our
// experiments, suggesting that a fingerprint length of 10 is sufficient."
//
// For each Figure 6 workload this bench runs the fingerprint-accelerated
// sweep and the naive sweep with identical seeds and reports the maximum
// and mean absolute deviation of E[output] across all parameter points,
// plus the reuse rate. Linear-structure models (Demand, Capacity,
// SynthBasis) should show ~0 error; Overload's boolean collapse is where
// fingerprint-length risk concentrates.

#include "bench_common.h"

#include "util/timer.h"

#include <cmath>

#include "core/sim_runner.h"
#include "models/cloud_models.h"

namespace {

using namespace jigsaw;
using bench::PaperConfig;

void AccuracyBench(benchmark::State& state, const BlackBoxPtr& model,
                   const ParameterSpace& space) {
  BlackBoxSimFunction fn(model);
  double max_err = 0.0, mean_err = 0.0, reuse_rate = 0.0;
  for (auto _ : state) {
    RunConfig fast_cfg = PaperConfig();
    SimulationRunner fast(fast_cfg);
    RunConfig slow_cfg = PaperConfig();
    slow_cfg.use_fingerprints = false;
    SimulationRunner slow(slow_cfg);

    WallTimer timer;
    const auto a = fast.RunSweep(fn, space);
    state.SetIterationTime(timer.ElapsedSeconds());
    const auto b = slow.RunSweep(fn, space);

    max_err = 0.0;
    mean_err = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double err = std::fabs(a[i].Metric(MetricSelector::kExpect) -
                                   b[i].Metric(MetricSelector::kExpect));
      max_err = std::max(max_err, err);
      mean_err += err;
    }
    mean_err /= static_cast<double>(a.size());
    reuse_rate = static_cast<double>(fast.stats().points_reused) /
                 static_cast<double>(fast.stats().points_evaluated);
  }
  state.counters["max_abs_mean_err"] = max_err;
  state.counters["mean_abs_mean_err"] = mean_err;
  state.counters["reuse_rate"] = reuse_rate;
}

ParameterSpace DemandSpace() {
  ParameterSpace space;
  (void)space.Add({"week", RangeDomain{1, 49, 1}});
  (void)space.Add({"feature", RangeDomain{0, 38, 2}});
  return space;
}

ParameterSpace CapacitySpace() {
  ParameterSpace space;
  (void)space.Add({"week", RangeDomain{0, 25, 1}});
  (void)space.Add({"p1", RangeDomain{0, 48, 8}});
  (void)space.Add({"p2", RangeDomain{0, 48, 8}});
  return space;
}

ParameterSpace SynthSpace() {
  ParameterSpace space;
  (void)space.Add({"point", RangeDomain{0, 499, 1}});
  return space;
}

void BM_Accuracy_Demand(benchmark::State& state) {
  AccuracyBench(state, MakeDemandModel({}), DemandSpace());
}
void BM_Accuracy_Capacity(benchmark::State& state) {
  AccuracyBench(state, MakeCapacityModel({}), CapacitySpace());
}
// Overload is measured across the demand/capacity crossing, where its
// boolean output actually varies (elsewhere the error is trivially 0).
ParameterSpace OverloadTransitionSpace() {
  ParameterSpace space;
  (void)space.Add({"week", RangeDomain{30, 55, 1}});
  (void)space.Add({"p1", RangeDomain{28, 52, 4}});
  (void)space.Add({"p2", RangeDomain{28, 52, 4}});
  return space;
}

void BM_Accuracy_Overload(benchmark::State& state) {
  AccuracyBench(state, MakeOverloadModel({}), OverloadTransitionSpace());
}
void BM_Accuracy_SynthBasis(benchmark::State& state) {
  CloudModelConfig cfg;
  cfg.synth_num_basis = 25;
  AccuracyBench(state, MakeSynthBasisModel(cfg), SynthSpace());
}

BENCHMARK(BM_Accuracy_Demand)->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1);
BENCHMARK(BM_Accuracy_Capacity)->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1);
BENCHMARK(BM_Accuracy_Overload)->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1);
BENCHMARK(BM_Accuracy_SynthBasis)->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
