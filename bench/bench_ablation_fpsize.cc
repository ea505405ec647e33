// Ablation (ours): fingerprint size m.
//
// Section 6.2 reports that "a fingerprint length of 10 is sufficient for
// the models we consider". This bench sweeps m and reports, for the
// Capacity sweep:
//   - total time (the m-vs-reuse tradeoff: larger m costs more per point
//     but discriminates better),
//   - basis count (too-small m under-splits: unrelated points can match,
//     as seen via accuracy),
//   - max |E_jigsaw - E_naive| across the sweep (reuse error).

#include "bench_common.h"

#include "util/timer.h"

#include <cmath>

#include "core/sim_runner.h"
#include "models/cloud_models.h"

namespace {

using namespace jigsaw;
using bench::PaperConfig;

ParameterSpace CapacitySpace() {
  ParameterSpace space;
  (void)space.Add({"week", RangeDomain{0, 25, 1}});
  (void)space.Add({"p1", RangeDomain{0, 48, 8}});
  (void)space.Add({"p2", RangeDomain{0, 48, 8}});
  return space;
}

void BM_FingerprintSize(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  BlackBoxSimFunction fn(MakeCapacityModel({}));
  const ParameterSpace space = CapacitySpace();

  // Naive reference once (outside timing).
  RunConfig naive_cfg = PaperConfig();
  naive_cfg.use_fingerprints = false;
  SimulationRunner naive(naive_cfg);
  const auto reference = naive.RunSweep(fn, space);

  RunConfig cfg = PaperConfig();
  cfg.fingerprint_size = m;
  std::size_t bases = 0;
  double max_err = 0.0;
  for (auto _ : state) {
    SimulationRunner runner(cfg);
    WallTimer timer;
    const auto results = runner.RunSweep(fn, space);
    state.SetIterationTime(timer.ElapsedSeconds());
    bases = runner.basis_store().size();
    max_err = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      max_err = std::max(max_err, std::fabs(results[i].MappedMetrics().mean -
                                            reference[i].MappedMetrics().mean));
    }
  }
  state.counters["m"] = static_cast<double>(m);
  state.counters["bases"] = static_cast<double>(bases);
  state.counters["max_abs_mean_err"] = max_err;
}

void Register() {
  for (std::int64_t m : {2, 3, 5, 10, 20, 50, 100}) {
    benchmark::RegisterBenchmark("BM_FingerprintSize", BM_FingerprintSize)
        ->Arg(m)->Unit(benchmark::kMillisecond)->UseManualTime()
        ->Iterations(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Register();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
